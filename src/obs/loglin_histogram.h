// HDR-style log-linear histogram, the one histogram family of the
// telemetry registry: fixed buckets, bounded memory, lock-free recording,
// mergeable snapshots. Every DIAGNET_OBSERVE metric and every span's
// "<name>.ms" histogram is one of these; loadgen uses it client-side.
// Each observation is counted into one of ~3.3k fixed buckets:
//
//  * log-linear layout — each power-of-two "major" bucket [2^e, 2^(e+1))
//    is split into 64 linear sub-buckets, so the half-bucket-width error
//    of reporting a bucket's midpoint is bounded at 1/128 < 0.8% of the
//    value, uniformly across ~15 decades (2^-20 .. 2^31). Exact tails:
//    the p999 over millions of samples is as accurate as the p50.
//  * lock-free hot path — observe() is one relaxed atomic increment plus
//    a handful of relaxed CAS updates (count/sum/min/max); it never takes
//    the registry mutex, so recording cannot serialise the threads it is
//    timing — cheap enough to leave on while serving.
//  * mergeable — Snapshot::merge() adds bucket counts, so per-connection
//    loadgen recorders can be combined into one exact distribution.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace diagnet::obs {

class LogLinearHistogram {
 public:
  /// 64 linear sub-buckets per power of two: midpoint relative error
  /// <= 1/(2*64) < 0.8%, well inside the 2% the serve gate demands.
  static constexpr int kSubBucketBits = 6;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  /// Covered value range [2^kMinExp2, 2^(kMaxExp2+1)): with values in
  /// milliseconds that is ~1 ns .. ~25 days. Values below the range land
  /// in the dedicated underflow bucket (reported as 0, i.e. "too small to
  /// resolve"), values at or above the top clamp into the overflow bucket
  /// (reported at the range top); min()/max() stay exact regardless.
  static constexpr int kMinExp2 = -20;
  static constexpr int kMaxExp2 = 30;
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExp2 - kMinExp2 + 1) * kSubBuckets +
      2;  // + underflow [0] + overflow [last]

  /// Bucket index for a value (total order, clamped at both ends).
  /// Exposed for the accuracy tests; NaN records as underflow.
  static std::size_t bucket_index(double v);
  /// Representative (midpoint) value re-materialised from a bucket index.
  static double bucket_midpoint(std::size_t index);

  /// Lock-free; safe from any number of threads concurrently with
  /// snapshot(). Relaxed ordering throughout: buckets are independent
  /// counters and snapshots are statistical, not linearisable.
  void observe(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // exact observed extremes (0 when empty)
    double max = 0.0;
    std::vector<std::uint64_t> buckets;  // kBucketCount wide (empty if count==0)

    double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
    /// Percentile q in [0,1] by cumulative bucket walk; the bucket
    /// midpoint clamped to [min, max]. NaN when empty.
    double percentile(double q) const;
    /// Pointwise bucket addition (exact: merging then querying equals
    /// querying the union stream).
    void merge(const Snapshot& other);
  };

  /// Point-in-time copy, safe while writers observe(). Concurrent
  /// observations may be torn across count/buckets by at most the number
  /// of in-flight writers — statistically invisible at serving rates.
  Snapshot snapshot() const;
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
};

}  // namespace diagnet::obs
