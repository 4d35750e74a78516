// Tests for the assembled coarse network: shapes, end-to-end gradient
// check (through LandPooling, concat, MLP and softmax loss, down to both
// input groups), freezing semantics, cloning and (de)serialisation.

#include <gtest/gtest.h>

#include <sstream>

#include "nn/coarse_net.h"
#include "nn/serialize.h"
#include "nn/softmax.h"
#include "tests/test_helpers.h"
#include "testkit/nets.h"
#include "testkit/oracle.h"
#include "util/rng.h"

namespace diagnet::nn {
namespace {

using testkit::oracle::central_difference;
using testkit::oracle::grad_error;
using test::random_matrix;
using testkit::logits;

CoarseNetConfig tiny_config() {
  CoarseNetConfig config;
  config.features_per_landmark = 3;
  config.local_features = 2;
  config.filters = 4;
  config.pool_ops = {PoolOp::Min, PoolOp::Max, PoolOp::Avg, PoolOp::P50};
  config.hidden = {8, 6};
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

TEST(CoarseNet, LogitShape) {
  util::Rng rng(1);
  CoarseNet net(tiny_config(), rng);
  const Matrix out = logits(net, tiny_batch(5, 6, 2));
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_EQ(out.cols(), 4u);
}

TEST(CoarseNet, HandlesVariableLandmarkCounts) {
  util::Rng rng(2);
  CoarseNet net(tiny_config(), rng);
  EXPECT_EQ(logits(net, tiny_batch(2, 4, 3)).cols(), 4u);
  EXPECT_EQ(logits(net, tiny_batch(2, 9, 4)).cols(), 4u);
}

TEST(CoarseNet, ParameterCountFormula) {
  util::Rng rng(3);
  const CoarseNetConfig config = tiny_config();
  CoarseNet net(config, rng);
  const std::size_t pooled = config.pool_ops.size() * config.filters;  // 16
  const std::size_t expected =
      config.filters * config.features_per_landmark + config.filters  // conv
      + (pooled + 2) * 8 + 8                                          // fc1
      + 8 * 6 + 6                                                     // fc2
      + 6 * 4 + 4;                                                    // out
  EXPECT_EQ(net.parameter_count(), expected);
  EXPECT_EQ(net.trainable_parameter_count(), expected);
}

TEST(CoarseNet, PaperParameterScaleWithTableIConfig) {
  // With the Table-I hyperparameters (ω = 13 ops) the model lands close to
  // the paper's 215,312 parameters — documented in DESIGN.md §2.
  util::Rng rng(4);
  CoarseNetConfig config;  // defaults = Table I
  CoarseNet net(config, rng);
  EXPECT_GT(net.parameter_count(), 190000u);
  EXPECT_LT(net.parameter_count(), 240000u);

  net.freeze_representation();
  // Final FC layers: 512x128+128 (the paper's 65,664) + output 128x7+7.
  EXPECT_EQ(net.trainable_parameter_count(), 65664u + 128u * 7u + 7u);
}

TEST(CoarseNet, EndToEndGradientCheck) {
  util::Rng rng(5);
  CoarseNet net(tiny_config(), rng);
  LandBatch batch = tiny_batch(3, 5, 6);
  batch.mask(2, 1) = 0.0;
  const std::vector<std::size_t> labels{0, 2, 3};

  // The reference: the same net and loss in long double.
  const auto loss = [&] {
    return testkit::oracle::coarse_net_loss(net, batch, labels);
  };

  // Parameter gradients — the training path.
  CoarseWorkspace ws;
  net.init_workspace(ws);
  Matrix grad_logits;
  softmax_cross_entropy(net.forward(batch, ws), labels, &grad_logits);
  net.backward(grad_logits, ws);
  // Input gradients — the attention path.
  Matrix grad_land;
  net.backward_inputs(grad_logits, ws, &grad_land);

  // The fp32 forward and backward chain a pooling reduction over the
  // landmarks and one reduction per FC layer of at most its width (the
  // concat's 18 inputs the widest); each layer's error carries into the
  // next, so the bound sums those lengths, and 16 bounds the terms'
  // magnitudes against max(|grad|, 1).
  const double tol = 16.0 * testkit::oracle::reduction_tol(5 + 18 + 8 + 6 + 4);

  // Sample a subset of parameters from every tensor (full sweep is slow).
  const std::vector<Parameter*> params = net.parameters();
  for (std::size_t p = 0; p < params.size(); ++p) {
    Parameter* param = params[p];
    util::Rng pick(reinterpret_cast<std::uintptr_t>(param));
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t r = pick.uniform_index(param->value.rows());
      const std::size_t c = pick.uniform_index(param->value.cols());
      const double fd = central_difference(loss, param->value(r, c));
      EXPECT_LT(grad_error(ws.param_grads[p](r, c), fd), tol);
    }
  }
  for (std::size_t c = 0; c < batch.land.cols(); c += 4) {
    const double fd = central_difference(loss, batch.land(1, c));
    EXPECT_LT(grad_error(grad_land(1, c), fd), tol);
  }
  for (std::size_t c = 0; c < batch.local.cols(); ++c) {
    const double fd = central_difference(loss, batch.local(0, c));
    EXPECT_LT(grad_error(ws.grad_local(0, c), fd), tol);
  }
}

TEST(CoarseNet, FreezeMarksRepresentationOnly) {
  util::Rng rng(7);
  CoarseNet net(tiny_config(), rng);
  net.freeze_representation();
  const auto params = net.parameters();
  // Order: pooling kernel+bias, fc1 w+b, fc2 w+b, out w+b.
  ASSERT_EQ(params.size(), 8u);
  EXPECT_TRUE(params[0]->frozen);   // kernel
  EXPECT_TRUE(params[1]->frozen);   // conv bias
  EXPECT_TRUE(params[2]->frozen);   // fc1 weight
  EXPECT_TRUE(params[3]->frozen);   // fc1 bias
  EXPECT_FALSE(params[4]->frozen);  // fc2 weight (final layers stay live)
  EXPECT_FALSE(params[7]->frozen);  // output bias

  net.freeze_representation(false);
  for (const Parameter* p : net.parameters()) EXPECT_FALSE(p->frozen);
}

TEST(CoarseNet, CloneIsDeepAndIdentical) {
  util::Rng rng(8);
  CoarseNet net(tiny_config(), rng);
  auto clone = net.clone();
  const LandBatch batch = tiny_batch(2, 5, 9);
  const Matrix a = logits(net, batch);
  const Matrix b = logits(*clone, batch);
  for (std::size_t c = 0; c < a.cols(); ++c)
    EXPECT_DOUBLE_EQ(a(0, c), b(0, c));

  // Mutating the clone must not touch the original.
  clone->parameters()[0]->value(0, 0) += 1.0;
  const Matrix a2 = logits(net, batch);
  for (std::size_t c = 0; c < a.cols(); ++c)
    EXPECT_DOUBLE_EQ(a(0, c), a2(0, c));
}

TEST(CoarseNet, SaveLoadRoundTrip) {
  util::Rng rng1(10);
  util::Rng rng2(11);
  CoarseNet a(tiny_config(), rng1);
  CoarseNet b(tiny_config(), rng2);  // different init
  b.load_parameters(a.save_parameters());
  const LandBatch batch = tiny_batch(2, 4, 12);
  const Matrix ya = logits(a, batch);
  const Matrix yb = logits(b, batch);
  for (std::size_t c = 0; c < ya.cols(); ++c)
    EXPECT_DOUBLE_EQ(ya(0, c), yb(0, c));
}

TEST(CoarseNet, LoadRejectsWrongSize) {
  util::Rng rng(13);
  CoarseNet net(tiny_config(), rng);
  std::vector<double> blob = net.save_parameters();
  blob.pop_back();
  EXPECT_THROW(net.load_parameters(blob), std::logic_error);
}

TEST(ParameterBlob, StreamRoundTrip) {
  const std::vector<double> flat{1.0, -2.5, 3.25, 0.0};
  std::stringstream ss;
  write_parameter_blob(ss, flat);
  EXPECT_EQ(read_parameter_blob(ss), flat);
}

TEST(ParameterBlob, RejectsGarbage) {
  std::stringstream ss("not a blob at all");
  EXPECT_THROW(read_parameter_blob(ss), std::runtime_error);
}

}  // namespace
}  // namespace diagnet::nn
