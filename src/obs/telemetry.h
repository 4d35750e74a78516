// Telemetry core: a process-wide registry of named counters, gauges and
// log-linear histograms, plus RAII spans that feed the histogram registry
// and, while a trace sink is configured, a Chrome-trace-compatible event
// buffer.
//
// Design constraints (every later perf PR reports against this layer, so it
// must not distort what it measures; `serve` leaves it on):
//
//  * Near-zero cost when disabled. Telemetry is OFF by default; every
//    recording helper early-outs on one relaxed atomic load.
//  * Lock-free recording. Counters/gauges are atomics and every histogram
//    is a LogLinearHistogram, so closing a span or observing a value takes
//    no mutex. Trace events are buffered only while a trace path is
//    configured (configure_exit_report: --trace / DIAGNET_TRACE); they
//    append to per-thread buffers that only lock their own (uncontended)
//    mutex.
//  * Deterministic names. Metrics use dotted lower-case paths
//    ("pipeline.train.wall_ms", "diagnose.latency_ms"); spans contribute a
//    histogram named "<span>.ms" automatically.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/loglin_histogram.h"

namespace diagnet::obs {

/// Runtime on/off switch (default off). Recording helpers and spans check
/// this first; toggling mid-run is safe (in-flight spans stay balanced).
bool enabled();
void set_enabled(bool on);

/// Sticky kill switch (DIAGNET_OBS=0): while forced off, set_enabled(true)
/// is a no-op, so a later --trace/--telemetry sink cannot re-enable
/// recording behind the user's back.
bool force_disabled();
void set_force_disabled(bool force);

/// Monotonically increasing event count (lock-free).
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// One completed span, in the Chrome trace-event "X" (complete) phase.
struct TraceEvent {
  const char* name = "";  // the DIAGNET_SPAN literal
  double ts_us = 0.0;   // start, monotonic microseconds since process epoch
  double dur_us = 0.0;
  std::uint32_t tid = 0;
};

/// Process-wide registry. Metric objects live for the process lifetime, so
/// references returned here never dangle (reset_for_test zeroes values, it
/// does not destroy entries).
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LogLinearHistogram& histogram(const std::string& name);

  /// Sorted-by-name snapshots for the report sinks.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, LogLinearHistogram::Snapshot>>
  histograms() const;

  /// Zero every metric and drop buffered trace events (test isolation).
  void reset_for_test();

 private:
  Registry() = default;
  template <typename T>
  T& lookup(std::vector<std::pair<std::string, std::unique_ptr<T>>>& entries,
            const std::string& name);

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<LogLinearHistogram>>>
      histograms_;
};

/// One instrumented span call site (created as a function-local static by
/// DIAGNET_SPAN): caches the "<name>.ms" histogram pointer after the
/// first recording so the span hot path never re-does the registry
/// lookup + string concatenation. Metric objects live for the process
/// lifetime (reset_for_test zeroes, never destroys), so the cached
/// pointer cannot dangle.
struct SpanSite {
  explicit SpanSite(const char* span_name) : name(span_name) {}
  const char* name;
  std::atomic<LogLinearHistogram*> histogram{nullptr};
};

/// Scoped timer. On destruction (if telemetry was enabled at construction)
/// it observes "<name>.ms" in the registry and, only while a trace path is
/// configured, appends a trace event. Nesting is expressed through event
/// containment per thread, which is how Perfetto / chrome://tracing
/// reconstruct the stack.
class Span {
 public:
  explicit Span(SpanSite& site);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanSite& site_;
  std::chrono::steady_clock::time_point start_;
  bool active_;
};

/// All trace events buffered so far (flushes every live thread's buffer);
/// empty unless a trace path was configured while the spans closed.
std::vector<TraceEvent> collect_trace_events();

/// Serialise the buffered events as a Chrome trace-event JSON object
/// ({"traceEvents": [...]}) loadable by Perfetto / chrome://tracing.
std::string trace_to_json();

/// trace_to_json() straight to a file; returns false on I/O failure.
bool write_trace_file(const std::string& path);

/// Append `s` to `out` as the body of a JSON string (escapes quotes,
/// backslashes and control characters). Shared by every JSON sink so
/// arbitrary metric/span names stay well-formed.
void append_json_escaped(std::string& out, std::string_view s);

}  // namespace diagnet::obs
