// Int8 post-training quantization (src/nn/quantized.*): round-trip and
// error bounds, snap-to-grid idempotence, batch-vs-single bit-equality of
// the per-row activation scheme, CoarseNet-level accuracy, and the
// property suite over quantize_row/qgemv on every kernel tier.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>

#include "nn/coarse_net.h"
#include "nn/quantized.h"
#include "tensor/ops.h"
#include "tests/test_helpers.h"
#include "testkit/nets.h"
#include "testkit/oracle.h"
#include "util/rng.h"

namespace diagnet::nn {
namespace {

using test::random_matrix;

TEST(Quantized, KnownValuesRoundTrip) {
  Matrix w(3, 2);
  w(0, 0) = 127.0; w(0, 1) = -1.0;
  w(1, 0) = -254.0; w(1, 1) = 0.5;
  w(2, 0) = 63.5; w(2, 1) = 2.0;

  const QuantizedLinear q = quantize_weights(w);
  ASSERT_TRUE(q.valid());
  // Column 0: absmax 254 -> scale 2; codes round(w/2).
  EXPECT_FLOAT_EQ(q.scales[0], 2.0f);
  EXPECT_EQ(q.weights[0 * 2 + 0], 64);    // 127/2 = 63.5 rounds to even 64
  EXPECT_EQ(q.weights[1 * 2 + 0], -127);
  EXPECT_EQ(q.weights[2 * 2 + 0], 32);
  // Column 1: absmax 2 -> scale 2/127; the absmax entry maps to +127.
  EXPECT_EQ(q.weights[2 * 2 + 1], 127);
}

TEST(Quantized, SnapToGridIsIdempotent) {
  Matrix w = random_matrix(24, 10, 71, 2.0);
  const QuantizedLinear q1 = quantize_weights(w);
  snap_to_grid(q1, w);
  // Re-quantizing the snapped weights reproduces the same codes & scales:
  // the grid is a fixed point.
  const QuantizedLinear q2 = quantize_weights(w);
  EXPECT_EQ(q1.weights, q2.weights);
  ASSERT_EQ(q1.scales.size(), q2.scales.size());
  for (std::size_t j = 0; j < q1.scales.size(); ++j)
    EXPECT_FLOAT_EQ(q1.scales[j], q2.scales[j]);
  Matrix w2 = w;
  snap_to_grid(q2, w2);
  for (std::size_t i = 0; i < w.rows(); ++i)
    for (std::size_t j = 0; j < w.cols(); ++j)
      EXPECT_EQ(w(i, j), w2(i, j));
}

TEST(Quantized, ForwardMatchesSnappedFpWithinActivationBound) {
  const std::size_t in = 32, out = 12, rows = 5;
  Matrix w = random_matrix(in, out, 81, 1.5);
  const Matrix input = random_matrix(rows, in, 82, 2.0);
  const Matrix bias = random_matrix(1, out, 83);

  const QuantizedLinear q = quantize_weights(w);
  Matrix got;
  quantized_forward(q, input, bias, got);

  // fp reference over the *snapped* weights: the remaining error is the
  // activation quantization, bounded per row by
  // (sx/2) * sum_i |w_snap(i, j)|, plus the fp32 reference's own
  // (in + 1)-term reduction and the int32 -> float rescale (three fp32
  // ops on the result).
  snap_to_grid(q, w);
  Matrix want;
  tensor::gemm(input, w, want);
  tensor::add_row_bias(want, bias);

  for (std::size_t r = 0; r < rows; ++r) {
    double absmax = 0.0;
    for (std::size_t i = 0; i < in; ++i)
      absmax = std::max<double>(absmax, std::fabs(input(r, i)));
    const double sx = absmax > 0.0 ? absmax / 127.0 : 1.0;
    for (std::size_t j = 0; j < out; ++j) {
      double col_l1 = 0.0, terms = std::fabs(bias(0, j));
      for (std::size_t i = 0; i < in; ++i) {
        col_l1 += std::fabs(w(i, j));
        terms += std::fabs(input(r, i) * w(i, j));
      }
      const double bound =
          0.5 * sx * col_l1 +
          testkit::oracle::reduction_tol(in + 1) * terms +
          3.0 * FLT_EPSILON * (std::fabs(want(r, j)) + 0.5 * sx * col_l1);
      EXPECT_LE(std::fabs(got(r, j) - want(r, j)), bound)
          << "row " << r << " col " << j;
    }
  }
}

TEST(Quantized, RowsScoreSameBitsAloneOrBatched) {
  const std::size_t in = 20, out = 9, rows = 6;
  const Matrix w = random_matrix(in, out, 91);
  const Matrix input = random_matrix(rows, in, 92, 3.0);
  const Matrix bias = random_matrix(1, out, 93);
  const QuantizedLinear q = quantize_weights(w);

  Matrix batched;
  quantized_forward(q, input, bias, batched);
  for (std::size_t r = 0; r < rows; ++r) {
    Matrix row(1, in);
    for (std::size_t i = 0; i < in; ++i) row(0, i) = input(r, i);
    Matrix single;
    quantized_forward(q, row, bias, single);
    for (std::size_t j = 0; j < out; ++j)
      EXPECT_EQ(batched(r, j), single(0, j)) << "row " << r;
  }
}

TEST(Quantized, EmptyBatchAndEmptyWeightAreInert) {
  const Matrix w = random_matrix(8, 4, 95);
  const QuantizedLinear q = quantize_weights(w);
  Matrix out;
  quantized_forward(q, Matrix(0, 8), random_matrix(1, 4, 96), out);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 4u);
  EXPECT_FALSE(quantize_weights(Matrix(0, 0)).valid());
  EXPECT_FALSE(quantize_weights(Matrix(5, 0)).valid());
}

CoarseNetConfig tiny_config() {
  CoarseNetConfig config;
  config.features_per_landmark = 3;
  config.local_features = 2;
  config.filters = 4;
  config.pool_ops = {PoolOp::Min, PoolOp::Max, PoolOp::Avg, PoolOp::P50};
  config.hidden = {16, 8};
  config.classes = 4;
  return config;
}

LandBatch tiny_batch(std::size_t batch, std::size_t landmarks,
                     std::uint64_t seed) {
  LandBatch b;
  b.land = random_matrix(batch, landmarks * 3, seed);
  b.mask = Matrix(batch, landmarks, 1.0);
  b.local = random_matrix(batch, 2, seed + 1);
  return b;
}

TEST(Quantized, CoarseNetQuantizedForwardStaysClose) {
  util::Rng rng(5);
  CoarseNet net(tiny_config(), rng);
  const LandBatch batch = tiny_batch(4, 6, 11);

  const Matrix fp = testkit::logits(net, batch);
  net.set_quantized(true);
  EXPECT_TRUE(net.quantized());
  const Matrix quant = testkit::logits(net, batch);
  ASSERT_EQ(quant.rows(), fp.rows());
  ASSERT_EQ(quant.cols(), fp.cols());
  // Per-channel int8 over narrow layers: logits stay close in absolute
  // terms (the recall gate in the bench guards the end-to-end effect).
  for (std::size_t i = 0; i < fp.rows(); ++i)
    for (std::size_t j = 0; j < fp.cols(); ++j)
      EXPECT_NEAR(quant(i, j), fp(i, j),
                  0.05 * (std::fabs(fp(i, j)) + 1.0));

  // Disabling restores the (snapped) fp path exactly and reproducibly.
  net.set_quantized(false);
  EXPECT_FALSE(net.quantized());
  const Matrix snapped1 = testkit::logits(net, batch);
  const Matrix snapped2 = testkit::logits(net, batch);
  for (std::size_t i = 0; i < fp.rows(); ++i)
    for (std::size_t j = 0; j < fp.cols(); ++j)
      EXPECT_EQ(snapped1(i, j), snapped2(i, j));
}

// The testkit suite: round-trip bounds, qgemv exactness on every tier,
// and bitwise tier-invariance of quantized_forward.
TEST(Quantized, PropertySuitePasses) {
  const testkit::SuiteResult result =
      test::run_property_suite("oracle.quantize");
  EXPECT_TRUE(result.ok()) << testkit::describe(result);
  EXPECT_GE(result.cases, 100u) << testkit::describe(result);
}

}  // namespace
}  // namespace diagnet
