// Tests of the LandPooling layer — the paper's central architectural
// contribution. Covers the two properties the design relies on
// (permutation invariance across landmarks, output size independent of the
// landmark count) and exact gradients through every pooling operator.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>

#include "nn/land_pooling.h"

#include "util/stats.h"
#include "tests/test_helpers.h"
#include "testkit/nets.h"
#include "testkit/oracle.h"
#include "util/rng.h"

namespace diagnet::nn {
namespace {

namespace oracle = testkit::oracle;
using testkit::oracle::central_difference;
using testkit::oracle::grad_error;
using test::random_matrix;
using testkit::pool_forward;

constexpr std::size_t kK = 5;
constexpr std::size_t kFilters = 4;

/// LandPooling's fp32 reductions relative to max(|value|, 1): the
/// convolution terms are bounded by |K|·|x| <= sqrt(6/k)·|x| (He-uniform
/// kernels over unit-normal features), and 16 bounds their summed
/// magnitudes against max(|value|, 1), so an n-term reduction gets
/// 16 · reduction_tol(n) (testkit's differential LandPooling bound).
double pool_tol(std::size_t n) { return 16.0 * oracle::reduction_tol(n); }

LandPooling make_pool(std::vector<PoolOp> ops, std::uint64_t seed = 1) {
  util::Rng rng(seed);
  return LandPooling(kK, kFilters, std::move(ops), rng);
}

TEST(LandPooling, OutputShape) {
  LandPooling pool = make_pool(default_pool_ops());
  const Matrix land = random_matrix(3, 10 * kK, 2);
  const Matrix mask(3, 10, 1.0);
  const Matrix out = pool_forward(pool, land, mask);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 13u * kFilters);
}

TEST(LandPooling, DefaultOpsMatchTableI) {
  const auto ops = default_pool_ops();
  EXPECT_EQ(ops.size(), 13u);  // min, max, avg, var, p10..p90
}

TEST(LandPooling, OutputIndependentOfLandmarkOrder) {
  LandPooling pool = make_pool(default_pool_ops());
  const std::size_t L = 6;
  const Matrix land = random_matrix(1, L * kK, 3);
  const Matrix mask(1, L, 1.0);
  const Matrix out = pool_forward(pool, land, mask);

  // Rotate landmarks: the pooled output must be identical.
  Matrix rotated(1, L * kK);
  for (std::size_t lam = 0; lam < L; ++lam)
    for (std::size_t f = 0; f < kK; ++f)
      rotated(0, ((lam + 2) % L) * kK + f) = land(0, lam * kK + f);
  const Matrix out_rotated = pool_forward(pool, rotated, mask);
  // Every operator reduces the sorted values, so the bits match exactly.
  for (std::size_t c = 0; c < out.cols(); ++c)
    EXPECT_EQ(out(0, c), out_rotated(0, c));
}

TEST(LandPooling, MaskedLandmarkEqualsPhysicallyRemoved) {
  LandPooling pool = make_pool(default_pool_ops());
  const std::size_t L = 5;
  Matrix land = random_matrix(1, L * kK, 4);
  Matrix mask(1, L, 1.0);
  mask(0, 2) = 0.0;  // hide landmark 2 — and poison its features
  for (std::size_t f = 0; f < kK; ++f) land(0, 2 * kK + f) = 1e9;
  const Matrix masked_out = pool_forward(pool, land, mask);

  // The same data with landmark 2 physically absent.
  Matrix smaller(1, (L - 1) * kK);
  std::size_t dst = 0;
  for (std::size_t lam = 0; lam < L; ++lam) {
    if (lam == 2) continue;
    for (std::size_t f = 0; f < kK; ++f)
      smaller(0, dst * kK + f) = land(0, lam * kK + f);
    ++dst;
  }
  const Matrix small_mask(1, L - 1, 1.0);
  const Matrix removed_out = pool_forward(pool, smaller, small_mask);
  for (std::size_t c = 0; c < masked_out.cols(); ++c)
    EXPECT_NEAR(masked_out(0, c), removed_out(0, c), 1e-12);
}

TEST(LandPooling, ExtendsToMoreLandmarksWithoutRetraining) {
  // The root-cause-extensibility property: the same kernel applies to a
  // larger fleet and still produces the same-sized output.
  LandPooling pool = make_pool(default_pool_ops());
  const Matrix land7 = random_matrix(2, 7 * kK, 5);
  const Matrix mask7(2, 7, 1.0);
  const Matrix land12 = random_matrix(2, 12 * kK, 6);
  const Matrix mask12(2, 12, 1.0);
  EXPECT_EQ(pool_forward(pool, land7, mask7).cols(),
            pool_forward(pool, land12, mask12).cols());
}

TEST(LandPooling, SingleLandmarkEdgeCases) {
  // With one landmark: min = max = avg = every percentile; var = 0.
  LandPooling pool = make_pool({PoolOp::Min, PoolOp::Max, PoolOp::Avg,
                                PoolOp::Var, PoolOp::P50});
  const Matrix land = random_matrix(1, kK, 7);
  const Matrix mask(1, 1, 1.0);
  const Matrix out = pool_forward(pool, land, mask);
  for (std::size_t j = 0; j < kFilters; ++j) {
    const double v = out(0, 0 * kFilters + j);
    EXPECT_DOUBLE_EQ(out(0, 1 * kFilters + j), v);   // max == min
    EXPECT_DOUBLE_EQ(out(0, 2 * kFilters + j), v);   // avg
    EXPECT_DOUBLE_EQ(out(0, 3 * kFilters + j), 0.0); // var
    EXPECT_DOUBLE_EQ(out(0, 4 * kFilters + j), v);   // p50
  }
}

TEST(LandPooling, AllLandmarksMaskedThrows) {
  LandPooling pool = make_pool({PoolOp::Avg});
  const Matrix land = random_matrix(1, 3 * kK, 8);
  const Matrix mask(1, 3, 0.0);
  EXPECT_THROW(pool_forward(pool, land, mask), std::logic_error);
}

TEST(LandPooling, PercentileMatchesUtilPercentile) {
  // With an identity-like single filter we can check the interpolation
  // directly: kernel row = e_0, bias = 0 -> F[λ] = x[λ][0].
  util::Rng rng(9);
  LandPooling pool(kK, 1, {PoolOp::P30}, rng);
  pool.kernel().value.fill(0.0f);
  pool.kernel().value(0, 0) = 1.0f;
  pool.bias().value.fill(0.0f);

  const std::size_t L = 7;
  Matrix land(1, L * kK);
  std::vector<double> firsts;
  util::Rng vals(10);
  for (std::size_t lam = 0; lam < L; ++lam) {
    land(0, lam * kK) = static_cast<float>(vals.normal());
    firsts.push_back(land(0, lam * kK));
  }
  const Matrix mask(1, L, 1.0);
  const Matrix out = pool_forward(pool, land, mask);
  // fp32 interpolation a + frac·(b - a): three roundings, plus the
  // decile 0.3 held as a float.
  EXPECT_LE(grad_error(out(0, 0), util::percentile(firsts, 0.3)),
            4.0 * FLT_EPSILON);
}

class PoolOpGradient : public ::testing::TestWithParam<PoolOp> {};

TEST_P(PoolOpGradient, MatchesFiniteDifferences) {
  util::Rng rng(11);
  LandPooling pool(kK, kFilters, {GetParam()}, rng);
  const std::size_t L = 6;
  Matrix land = random_matrix(2, L * kK, 12);
  Matrix mask(2, L, 1.0);
  mask(1, 4) = 0.0;  // one sample misses a landmark
  const Matrix weights = random_matrix(2, kFilters, 13);

  // Scalar loss <weights, pooled>, through the long-double oracle.
  const auto loss = [&] {
    return oracle::pooled_dot(pool.kernel().value, pool.bias().value,
                              pool.ops(), land, mask, weights);
  };
  // Routing takes at most four fp32 ops per term, then the kernel and
  // bias gradients reduce over the L landmarks and the input gradient
  // over the filters.
  const double tol = pool_tol(L + kFilters + 4);

  LandPooling::PoolContext ctx;
  Matrix pooled, grad_land;
  Matrix kernel_grad(kFilters, kK), bias_grad(1, kFilters);
  pool.forward(land, mask, ctx, pooled);
  pool.backward_params(weights, ctx, kernel_grad, bias_grad);
  pool.backward_input(weights, ctx, grad_land);

  for (std::size_t r = 0; r < pool.kernel().value.rows(); ++r)
    for (std::size_t c = 0; c < pool.kernel().value.cols(); ++c) {
      const double fd = central_difference(loss, pool.kernel().value(r, c));
      EXPECT_LT(grad_error(kernel_grad(r, c), fd), tol)
          << pool_op_name(GetParam()) << " kernel(" << r << "," << c << ")";
    }
  // The var op's bias gradient is analytically zero (variance is
  // shift-invariant): the reference's difference is long-double noise and
  // the fp32 sum of routed terms cancels to within the same bound.
  for (std::size_t c = 0; c < kFilters; ++c) {
    const double fd = central_difference(loss, pool.bias().value(0, c));
    EXPECT_LT(grad_error(bias_grad(0, c), fd), tol)
        << pool_op_name(GetParam()) << " bias(" << c << ")";
  }
  for (std::size_t r = 0; r < land.rows(); ++r)
    for (std::size_t c = 0; c < land.cols(); ++c) {
      const double fd = central_difference(loss, land(r, c));
      EXPECT_LT(grad_error(grad_land(r, c), fd), tol)
          << pool_op_name(GetParam()) << " land(" << r << "," << c << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, PoolOpGradient,
    ::testing::Values(PoolOp::Min, PoolOp::Max, PoolOp::Avg, PoolOp::Var,
                      PoolOp::P10, PoolOp::P30, PoolOp::P50, PoolOp::P70,
                      PoolOp::P90),
    [](const auto& param_info) { return pool_op_name(param_info.param); });

TEST(LandPooling, MaskedLandmarkGetsZeroInputGradient) {
  LandPooling pool = make_pool(default_pool_ops());
  const std::size_t L = 4;
  const Matrix land = random_matrix(1, L * kK, 14);
  Matrix mask(1, L, 1.0);
  mask(0, 1) = 0.0;
  LandPooling::PoolContext ctx;
  Matrix pooled, grad_land;
  pool.forward(land, mask, ctx, pooled);
  const Matrix grad = random_matrix(1, pool.out_features(), 15);
  pool.backward_input(grad, ctx, grad_land);
  for (std::size_t f = 0; f < kK; ++f)
    EXPECT_DOUBLE_EQ(grad_land(0, kK + f), 0.0);
}

}  // namespace
}  // namespace diagnet::nn
