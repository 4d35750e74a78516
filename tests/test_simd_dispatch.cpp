// Runtime kernel dispatch (src/tensor/dispatch.*): tier probing and
// forcing, the scalar-vs-avx2 differential over the testkit oracles, and
// the zero-row/zero-col edge shapes of the dispatched ops, and the bit
// contracts of the register-tiled GEMM blocks. The property suite here is
// the one the CI forced-tier sweep pins under asan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/dispatch.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tests/test_helpers.h"
#include "testkit/oracle.h"
#include "util/thread_pool.h"

namespace diagnet {
namespace {

using tensor::KernelTier;

/// Restores the env-resolved tier however a test exits.
struct TierGuard {
  ~TierGuard() { tensor::reset_kernel_tier(); }
};

TEST(SimdDispatch, ScalarTierAlwaysSupportedAndForcible) {
  TierGuard guard;
  EXPECT_TRUE(tensor::kernel_tier_supported(KernelTier::kScalar));
  ASSERT_TRUE(tensor::force_kernel_tier(KernelTier::kScalar));
  EXPECT_EQ(tensor::active_kernel_tier(), KernelTier::kScalar);
  EXPECT_STREQ(tensor::active_kernel_tier_name(), "scalar");
  EXPECT_STREQ(tensor::detail::active_kernels().name, "scalar");
}

TEST(SimdDispatch, ForcingAvx2FollowsCpuSupport) {
  TierGuard guard;
  const bool supported = tensor::kernel_tier_supported(KernelTier::kAvx2);
  const KernelTier before = tensor::active_kernel_tier();
  EXPECT_EQ(tensor::force_kernel_tier(KernelTier::kAvx2), supported);
  if (supported) {
    EXPECT_EQ(tensor::active_kernel_tier(), KernelTier::kAvx2);
    EXPECT_STREQ(tensor::active_kernel_tier_name(), "avx2");
    EXPECT_NE(tensor::detail::avx2_kernels(), nullptr);
  } else {
    // A refused force must change nothing.
    EXPECT_EQ(tensor::active_kernel_tier(), before);
  }
}

TEST(SimdDispatch, CpuFeaturesStringMatchesProbe) {
  const std::string features = tensor::cpu_features_string();
  EXPECT_FALSE(features.empty());
  const tensor::CpuFeatures& cpu = tensor::cpu_features();
  EXPECT_EQ(features.find("avx2") != std::string::npos, cpu.avx2);
  if (!cpu.avx2 && !cpu.fma && !cpu.neon) {
    EXPECT_EQ(features, "none");
  }
}

TEST(SimdDispatch, TierNamesRoundTrip) {
  EXPECT_STREQ(tensor::kernel_tier_name(KernelTier::kScalar), "scalar");
  EXPECT_STREQ(tensor::kernel_tier_name(KernelTier::kAvx2), "avx2");
}

// The per-tier microkernel differential (axpy/gemv/dot/reductions vs
// long-double references, bit-exactness contracts, zero-length spans).
TEST(SimdDispatch, KernelTiersMatchOracles) {
  const testkit::SuiteResult result =
      test::run_property_suite("oracle.kernel_tiers");
  EXPECT_TRUE(result.ok()) << testkit::describe(result);
  EXPECT_GE(result.cases, 100u) << testkit::describe(result);
}

TEST(SimdDispatch, ZeroShapeGemmIsWellDefined) {
  TierGuard guard;
  for (const KernelTier tier : {KernelTier::kScalar, KernelTier::kAvx2}) {
    if (!tensor::force_kernel_tier(tier)) continue;
    // K == 0: a well-defined all-zero product, not UB.
    const tensor::Matrix a0(3, 0), b0(0, 4);
    tensor::Matrix c;
    tensor::gemm(a0, b0, c);
    ASSERT_EQ(c.rows(), 3u);
    ASSERT_EQ(c.cols(), 4u);
    for (std::size_t i = 0; i < c.rows(); ++i)
      for (std::size_t j = 0; j < c.cols(); ++j) EXPECT_EQ(c(i, j), 0.0);

    // M == 0 and N == 0 produce empty outputs of the right shape.
    tensor::gemm(tensor::Matrix(0, 5), tensor::Matrix(5, 4), c);
    EXPECT_EQ(c.rows(), 0u);
    EXPECT_EQ(c.cols(), 4u);
    tensor::gemm(tensor::Matrix(3, 5), tensor::Matrix(5, 0), c);
    EXPECT_EQ(c.rows(), 3u);
    EXPECT_EQ(c.cols(), 0u);

    tensor::Matrix cv;
    tensor::gemm(tensor::Matrix(1, 0), tensor::Matrix(0, 4), cv);
    ASSERT_EQ(cv.rows(), 1u);
    ASSERT_EQ(cv.cols(), 4u);
    for (std::size_t j = 0; j < cv.cols(); ++j) EXPECT_EQ(cv(0, j), 0.0);
  }
}

// Cross-tier GEMM agreement at the ops level: FMA only reorders rounding,
// so a forced-scalar and forced-avx2 product each sit within one k-term
// reduction bound of the exact product, and within two of each other.
TEST(SimdDispatch, CrossTierGemmAgreesToTolerance) {
  if (!tensor::kernel_tier_supported(KernelTier::kAvx2))
    GTEST_SKIP() << "no avx2 tier on this CPU";
  TierGuard guard;
  const tensor::Matrix a = test::random_matrix(17, 61, 42);
  const tensor::Matrix b = test::random_matrix(61, 23, 43);

  ASSERT_TRUE(tensor::force_kernel_tier(KernelTier::kScalar));
  tensor::Matrix c_scalar;
  tensor::gemm(a, b, c_scalar);
  ASSERT_TRUE(tensor::force_kernel_tier(KernelTier::kAvx2));
  tensor::Matrix c_avx2;
  tensor::gemm(a, b, c_avx2);

  namespace oracle = testkit::oracle;
  const tensor::Matrix magnitude =
      oracle::gemm(oracle::abs(a), oracle::abs(b));
  for (std::size_t i = 0; i < c_scalar.rows(); ++i)
    for (std::size_t j = 0; j < c_scalar.cols(); ++j)
      EXPECT_NEAR(c_scalar(i, j), c_avx2(i, j),
                  2.0 * oracle::reduction_tol(61) * magnitude(i, j));
}

// ---- Register-tiled GEMM blocks: same bits as the row-at-a-time forms ----

/// Row `i` of A as a 1 x cols matrix.
tensor::Matrix row_of(const tensor::Matrix& a, std::size_t i) {
  tensor::Matrix r(1, a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) r(0, j) = a(i, j);
  return r;
}

/// Column `i` of A as a rows x 1 matrix.
tensor::Matrix col_of(const tensor::Matrix& a, std::size_t i) {
  tensor::Matrix c(a.rows(), 1);
  for (std::size_t r = 0; r < a.rows(); ++r) c(r, 0) = a(r, i);
  return c;
}

bool same_bits(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool rows_equal(const tensor::Matrix& a, std::size_t i, const float* want) {
  return a.cols() == 0 ||
         std::memcmp(a.row_ptr(i), want, a.cols() * sizeof(float)) == 0;
}

/// c += Σ_kk x[kk] · B(kk, :) as the tier's own primitives build it one
/// row at a time: ascending k, groups of four through axpy4, remainder
/// through axpy1.
void grouped_axpy_row(const tensor::detail::Kernels& K,
                      const std::vector<float>& x, const tensor::Matrix& b,
                      float* c) {
  const std::size_t k = x.size(), n = b.cols();
  std::size_t kk = 0;
  for (; kk + 4 <= k; kk += 4)
    K.axpy4(c, b.row_ptr(kk), b.row_ptr(kk + 1), b.row_ptr(kk + 2),
            b.row_ptr(kk + 3), x[kk], x[kk + 1], x[kk + 2], x[kk + 3], n);
  for (; kk < k; ++kk) K.axpy1(c, b.row_ptr(kk), x[kk], n);
}

/// The same sum as a plain ascending chain of axpy1 calls. On tiers whose
/// axpy4 is four chained FMAs (avx2) this is bit-identical to the grouped
/// form; the scalar tier's axpy4 adds its four products first.
void sequential_axpy_row(const tensor::detail::Kernels& K,
                         const std::vector<float>& x,
                         const tensor::Matrix& b, float* c) {
  for (std::size_t kk = 0; kk < x.size(); ++kk)
    K.axpy1(c, b.row_ptr(kk), x[kk], b.cols());
}

void check_tiled_shape(const tensor::detail::Kernels& K, std::size_t m,
                       std::size_t n, std::size_t k, std::uint64_t seed) {
  SCOPED_TRACE(std::string(K.name) + " m=" + std::to_string(m) +
               " n=" + std::to_string(n) + " k=" + std::to_string(k));
  const bool chained_axpy4 = std::string(K.name) == "avx2";
  std::vector<float> want(n);
  std::vector<float> x(k);

  // gemm: C = A · B.
  const tensor::Matrix a = test::random_matrix(m, k, seed);
  const tensor::Matrix b = test::random_matrix(k, n, seed + 1);
  tensor::Matrix c, one;
  tensor::gemm(a, b, c);
  for (std::size_t i = 0; i < m; ++i) {
    tensor::gemm(row_of(a, i), b, one);
    EXPECT_TRUE(rows_equal(c, i, one.row_ptr(0))) << "gemm row " << i;
    for (std::size_t kk = 0; kk < k; ++kk) x[kk] = a(i, kk);
    std::fill(want.begin(), want.end(), 0.0f);
    grouped_axpy_row(K, x, b, want.data());
    EXPECT_TRUE(rows_equal(c, i, want.data())) << "gemm vs axpy row " << i;
    if (chained_axpy4) {
      std::fill(want.begin(), want.end(), 0.0f);
      sequential_axpy_row(K, x, b, want.data());
      EXPECT_TRUE(rows_equal(c, i, want.data())) << "gemm vs axpy1 " << i;
    }
  }

  // gemm_a_bt: C = A · Btᵀ, every element one dot.
  const tensor::Matrix bt = test::random_matrix(n, k, seed + 2);
  tensor::gemm_a_bt(a, bt, c);
  for (std::size_t i = 0; i < m; ++i) {
    tensor::gemm_a_bt(row_of(a, i), bt, one);
    EXPECT_TRUE(rows_equal(c, i, one.row_ptr(0))) << "gemm_a_bt row " << i;
    for (std::size_t j = 0; j < n; ++j)
      want[j] = K.dot(a.row_ptr(i), bt.row_ptr(j), k);
    EXPECT_TRUE(rows_equal(c, i, want.data())) << "gemm_a_bt vs dot " << i;
  }

  // gemm_at_b_acc: C += Atᵀ · B onto a non-zero C.
  const tensor::Matrix at = test::random_matrix(k, m, seed + 3);
  const tensor::Matrix c0 = test::random_matrix(m, n, seed + 4);
  c = c0;
  tensor::gemm_at_b_acc(at, b, c);
  for (std::size_t i = 0; i < m; ++i) {
    one = row_of(c0, i);
    tensor::gemm_at_b_acc(col_of(at, i), b, one);
    EXPECT_TRUE(rows_equal(c, i, one.row_ptr(0))) << "at_b_acc row " << i;
    for (std::size_t kk = 0; kk < k; ++kk) x[kk] = at(kk, i);
    std::copy(c0.row_ptr(i), c0.row_ptr(i) + n, want.begin());
    grouped_axpy_row(K, x, b, want.data());
    EXPECT_TRUE(rows_equal(c, i, want.data())) << "at_b_acc vs axpy " << i;
    if (chained_axpy4) {
      std::copy(c0.row_ptr(i), c0.row_ptr(i) + n, want.begin());
      sequential_axpy_row(K, x, b, want.data());
      EXPECT_TRUE(rows_equal(c, i, want.data())) << "at_b_acc vs axpy1 " << i;
    }
  }
}

// Each GEMM form, on every tier this CPU runs, across row counts around
// the tile heights and the 32-row block, column counts around the 8-lane
// vector and the 16-column panel, and k around the fused groups of four
// and the 8-lane dot strides (k = 0 included).
TEST(SimdDispatch, TiledGemmMatchesRowAtATimeBitwise) {
  TierGuard guard;
  for (const KernelTier tier : {KernelTier::kScalar, KernelTier::kAvx2}) {
    if (!tensor::force_kernel_tier(tier)) continue;
    const tensor::detail::Kernels& K = tensor::detail::active_kernels();
    std::uint64_t seed = 1000;
    for (const std::size_t m : {2, 3, 4, 5, 7, 8, 31, 32, 33, 65})
      for (const std::size_t n : {1, 7, 8, 15, 16, 17, 128, 512})
        for (const std::size_t k : {0, 1, 7, 8, 9, 317})
          check_tiled_shape(K, m, n, k, seed += 10);
  }
}

// A 96-row product crosses the parallel threshold: its three 32-row blocks
// run on the process pool. A pool of size 1 runs those same blocks inline,
// one after another, which is what computing each block as its own
// (serial, sub-threshold) call does; 4 concurrent callers on a 4-thread
// pool put the blocks on arbitrary threads. All must agree bit for bit.
TEST(SimdDispatch, TiledGemmIsPoolSizeInvariant) {
  TierGuard guard;
  for (const KernelTier tier : {KernelTier::kScalar, KernelTier::kAvx2}) {
    if (!tensor::force_kernel_tier(tier)) continue;
    SCOPED_TRACE(tensor::active_kernel_tier_name());
    const tensor::Matrix a = test::random_matrix(96, 317, 71);
    const tensor::Matrix b = test::random_matrix(317, 512, 72);
    const tensor::Matrix g = test::random_matrix(96, 512, 73);
    tensor::Matrix fwd, bwd;
    tensor::gemm(a, b, fwd);
    tensor::gemm_a_bt(g, b, bwd);

    for (std::size_t r0 = 0; r0 < 96; r0 += 32) {
      tensor::Matrix a_blk(32, 317), g_blk(32, 512), out;
      for (std::size_t i = 0; i < 32; ++i) {
        std::copy(a.row_ptr(r0 + i), a.row_ptr(r0 + i) + 317,
                  a_blk.row_ptr(i));
        std::copy(g.row_ptr(r0 + i), g.row_ptr(r0 + i) + 512,
                  g_blk.row_ptr(i));
      }
      tensor::gemm(a_blk, b, out);
      for (std::size_t i = 0; i < 32; ++i)
        EXPECT_TRUE(rows_equal(fwd, r0 + i, out.row_ptr(i))) << r0 + i;
      tensor::gemm_a_bt(g_blk, b, out);
      for (std::size_t i = 0; i < 32; ++i)
        EXPECT_TRUE(rows_equal(bwd, r0 + i, out.row_ptr(i))) << r0 + i;
    }

    util::ThreadPool callers(4);
    std::vector<tensor::Matrix> fwds(4), bwds(4);
    callers.parallel_for(4, [&](std::size_t t) {
      tensor::gemm(a, b, fwds[t]);
      tensor::gemm_a_bt(g, b, bwds[t]);
    });
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_TRUE(same_bits(fwds[t], fwd)) << "caller " << t;
      EXPECT_TRUE(same_bits(bwds[t], bwd)) << "caller " << t;
    }
  }
}

}  // namespace
}  // namespace diagnet
