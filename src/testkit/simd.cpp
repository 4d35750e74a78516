#include "testkit/simd.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "tensor/dispatch.h"
#include "tensor/kernels.h"
#include "testkit/gen.h"
#include "testkit/oracle.h"

namespace diagnet::testkit {

namespace {

using tensor::detail::Kernels;

/// Spans that cross every kernel regime: empty, below the 8-lane width,
/// exactly at it, the avx2 small-reduce threshold (16) and its neighbours,
/// the 32-wide dot stride, and a couple of long random spans for the
/// unrolled bodies.
std::vector<std::size_t> spans(util::Rng& rng) {
  return {0,  1,  3,  7,  8,  9,  15, 16, 17, 31, 32, 33,
          gen::dim(rng, 33, 96), gen::dim(rng, 200, 600)};
}

std::vector<float> vec(util::Rng& rng, std::size_t n, double scale = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal() * scale);
  return v;
}

/// |got - want| within the fp32 error bound of an n-term reduction whose
/// terms' magnitudes sum to `magnitude` (oracle::reduction_tol).
void check_reduction(CaseContext& ctx, double got, long double want,
                     long double magnitude, std::size_t n,
                     const std::string& what) {
  const long double err = std::fabs(static_cast<long double>(got) - want);
  ctx.check_near(static_cast<double>(
                     err / std::max<long double>(magnitude, FLT_MIN)),
                 0.0, oracle::reduction_tol(n), what);
}

/// Every tier this binary can actually run here. Scalar is always first.
std::vector<const Kernels*> runnable_tiers() {
  std::vector<const Kernels*> tiers = {&tensor::detail::scalar_kernels()};
  if (tensor::kernel_tier_supported(tensor::KernelTier::kAvx2))
    tiers.push_back(tensor::detail::avx2_kernels());
  return tiers;
}

void check_one_tier(CaseContext& ctx, const Kernels& K, std::size_t n,
                    util::Rng& rng) {
  const std::string tag =
      std::string(" [") + K.name + " n=" + std::to_string(n) + "]";

  const std::vector<float> a = vec(rng, n);
  const std::vector<float> b = vec(rng, n);

  // dot vs long-double reference.
  long double want_dot = 0.0L, dot_mag = 0.0L;
  for (std::size_t j = 0; j < n; ++j) {
    want_dot += static_cast<long double>(a[j]) * b[j];
    dot_mag += std::fabs(static_cast<long double>(a[j]) * b[j]);
  }
  check_reduction(ctx, K.dot(a.data(), b.data(), n), want_dot, dot_mag, n,
                  "dot" + tag);

  // reduce_sum / reduce_sq_dev.
  long double want_sum = 0.0L, sum_mag = 0.0L;
  for (const float x : a) {
    want_sum += x;
    sum_mag += std::fabs(x);
  }
  check_reduction(ctx, K.reduce_sum(a.data(), n), want_sum, sum_mag, n,
                  "reduce_sum" + tag);
  const float mean =
      n > 0 ? static_cast<float>(want_sum / static_cast<long double>(n))
            : 0.0f;
  long double want_sq = 0.0L;
  for (const float x : a) {
    const long double d = static_cast<long double>(x) - mean;
    want_sq += d * d;
  }
  // Each term also rounds its difference (twice, once per factor).
  check_reduction(ctx, K.reduce_sq_dev(a.data(), n, mean), want_sq, want_sq,
                  n + 2, "reduce_sq_dev" + tag);

  // reduce_max is exact (no rounding), and the n == 0 edge is part of the
  // contract: -inf.
  float want_max = -std::numeric_limits<float>::infinity();
  for (const float x : a) want_max = std::max(want_max, x);
  ctx.check(K.reduce_max(a.data(), n) == want_max, "reduce_max" + tag);

  // axpy1 vs a long-double reference: one product and one sum per lane.
  const auto alpha = static_cast<float>(rng.normal());
  const std::vector<float> c = vec(rng, n);
  std::vector<float> c1 = c;
  K.axpy1(c1.data(), b.data(), alpha, n);
  for (std::size_t j = 0; j < n; ++j) {
    const long double prod = static_cast<long double>(alpha) * b[j];
    check_reduction(ctx, c1[j], c[j] + prod, std::fabs(c[j]) + std::fabs(prod),
                    2, "axpy1" + tag);
  }

  // axpy4 vs long-double reference. On the AVX2 tier the fused group is
  // additionally bit-identical to four ordered axpy1 calls (its FMA chain
  // is rooted at c[j]); the scalar tier sums the four products in one
  // expression, so there it only has to be *near* the sequential result —
  // its batch/single equality comes from both paths calling this same
  // axpy4, which the gemv-composition check below pins.
  const std::vector<float> b0 = vec(rng, n), b1 = vec(rng, n);
  const std::vector<float> b2 = vec(rng, n), b3 = vec(rng, n);
  const auto a0 = static_cast<float>(rng.normal());
  const auto a1 = static_cast<float>(rng.normal());
  const auto a2 = static_cast<float>(rng.normal());
  const auto a3 = static_cast<float>(rng.normal());
  std::vector<float> fused = c;
  K.axpy4(fused.data(), b0.data(), b1.data(), b2.data(), b3.data(), a0, a1,
          a2, a3, n);
  for (std::size_t j = 0; j < n; ++j) {
    const long double p[4] = {static_cast<long double>(a0) * b0[j],
                              static_cast<long double>(a1) * b1[j],
                              static_cast<long double>(a2) * b2[j],
                              static_cast<long double>(a3) * b3[j]};
    long double want = c[j], mag = std::fabs(c[j]);
    for (const long double t : p) {
      want += t;
      mag += std::fabs(t);
    }
    check_reduction(ctx, fused[j], want, mag, 5, "axpy4" + tag);
  }
  if (std::string(K.name) == "avx2") {
    std::vector<float> seq = c;
    K.axpy1(seq.data(), b0.data(), a0, n);
    K.axpy1(seq.data(), b1.data(), a1, n);
    K.axpy1(seq.data(), b2.data(), a2, n);
    K.axpy1(seq.data(), b3.data(), a3, n);
    ctx.check(fused == seq, "axpy4 == 4x axpy1 bitwise" + tag);
  }

  // scale_div vs plain division (exact: same single fp op per lane).
  const auto denom = static_cast<float>(1.0 + std::fabs(rng.normal()) * 3.0);
  std::vector<float> scaled = c;
  K.scale_div(scaled.data(), denom, n);
  bool div_exact = true;
  for (std::size_t j = 0; j < n; ++j)
    div_exact = div_exact && scaled[j] == c[j] / denom;
  ctx.check(div_exact, "scale_div" + tag);
}

void check_gemv_tier(CaseContext& ctx, const Kernels& K, std::size_t k,
                     std::size_t n, util::Rng& rng) {
  const std::string tag = std::string(" [") + K.name + " k=" +
                          std::to_string(k) + " n=" + std::to_string(n) +
                          "]";
  const std::vector<float> a = vec(rng, k);
  const std::vector<float> b = vec(rng, k * n);
  const std::vector<float> c0 = vec(rng, n);

  // Zero-row (k == 0) and zero-col (n == 0) must be well-defined no-ops.
  std::vector<float> c = c0;
  K.gemv(c.data(), a.data(), b.data(), k, n, n);
  if (k == 0 || n == 0) {
    ctx.check(c == c0, "gemv zero-shape is a no-op" + tag);
    return;
  }

  for (std::size_t j = 0; j < n; ++j) {
    long double want = c0[j], mag = std::fabs(c0[j]);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const long double t = static_cast<long double>(a[kk]) * b[kk * n + j];
      want += t;
      mag += std::fabs(t);
    }
    check_reduction(ctx, c[j], want, mag, k + 1, "gemv" + tag);
  }

  // gemv must equal its own tier's grouped axpy composition bitwise — the
  // 1-row GEMM fast path depends on this.
  std::vector<float> grouped = c0;
  std::size_t kk = 0;
  for (; kk + 4 <= k; kk += 4)
    K.axpy4(grouped.data(), &b[kk * n], &b[(kk + 1) * n], &b[(kk + 2) * n],
            &b[(kk + 3) * n], a[kk], a[kk + 1], a[kk + 2], a[kk + 3], n);
  for (; kk < k; ++kk) K.axpy1(grouped.data(), &b[kk * n], a[kk], n);
  ctx.check(c == grouped, "gemv == grouped axpy bitwise" + tag);
}

}  // namespace

void check_kernel_tiers(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;
  const std::vector<const Kernels*> tiers = runnable_tiers();

  for (std::size_t n : spans(rng)) {
    ctx.begin_case();
    for (const Kernels* K : tiers) check_one_tier(ctx, *K, n, rng);

    // Cross-tier agreement: FMA reorders rounding, so scalar vs avx2 only
    // match to the oracle tolerance — but both must be near the truth, so
    // they must be within twice that bound of each other.
    if (tiers.size() > 1 && n > 0) {
      const std::vector<float> a = vec(rng, n), b = vec(rng, n);
      long double mag = 0.0L;
      for (std::size_t j = 0; j < n; ++j)
        mag += std::fabs(static_cast<long double>(a[j]) * b[j]);
      const double diff = std::fabs(
          static_cast<double>(tiers[0]->dot(a.data(), b.data(), n)) -
          tiers[1]->dot(a.data(), b.data(), n));
      ctx.check(diff <= 2.0 * oracle::reduction_tol(n) *
                            static_cast<double>(mag),
                "scalar vs avx2 dot n=" + std::to_string(n));
    }
  }

  // gemv shapes: zero-row, zero-col, tiny, and one realistic FC panel.
  const std::size_t k_rand = gen::dim(rng, 5, 40);
  const std::size_t n_rand = gen::dim(rng, 5, 40);
  const struct { std::size_t k, n; } shapes[] = {
      {0, 7}, {7, 0}, {0, 0}, {1, 1}, {3, 9}, {k_rand, n_rand}, {64, 96}};
  for (const auto& s : shapes) {
    ctx.begin_case();
    for (const Kernels* K : tiers) check_gemv_tier(ctx, *K, s.k, s.n, rng);
  }
}

}  // namespace diagnet::testkit
