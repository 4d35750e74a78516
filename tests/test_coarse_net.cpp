// Tests for the assembled coarse network: shapes, end-to-end gradient
// check (through LandPooling, concat, MLP and softmax loss, down to both
// input groups), heads on a frozen representation and parameter
// save/load.

#include <gtest/gtest.h>

#include <cstring>

#include "nn/coarse_net.h"
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
  EXPECT_EQ(net.head()->parameter_count(), 8u * 6u + 6u + 6u * 4u + 4u);
}

TEST(CoarseNet, PaperParameterScaleWithTableIConfig) {
  // With the Table-I hyperparameters (ω = 13 ops) the model lands close to
  // the paper's 215,312 parameters — documented in DESIGN.md §2.
  util::Rng rng(4);
  CoarseNetConfig config;  // defaults = Table I
  CoarseNet net(config, rng);
  EXPECT_GT(net.parameter_count(), 190000u);
  EXPECT_LT(net.parameter_count(), 240000u);

  // A head trains the final FC layers: 512x128+128 (the paper's 65,664)
  // + output 128x7+7.
  EXPECT_EQ(net.head()->parameter_count(), 65664u + 128u * 7u + 7u);
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

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(CoarseNet, HeadTrainsOnlyTheTail) {
  util::Rng rng(7);
  CoarseNet net(tiny_config(), rng);
  const auto general = net.parameters();
  auto head = net.head();
  const auto tail = head->parameters();
  // General order: pooling kernel+bias, fc1 w+b, fc2 w+b, out w+b. A head
  // hands a trainer fc2 w+b and out w+b: its own copies, equal in value.
  ASSERT_EQ(general.size(), 8u);
  ASSERT_EQ(tail.size(), 4u);
  for (std::size_t k = 0; k < tail.size(); ++k) {
    EXPECT_NE(tail[k], general[4 + k]) << "tail parameter " << k;
    EXPECT_TRUE(same_bits(tail[k]->value, general[4 + k]->value));
  }
  EXPECT_EQ(&head->pooling(), &net.pooling());
  EXPECT_EQ(head->save_parameters(), net.save_parameters());

  // Loading a blob into a head writes its tail and refuses another
  // representation rather than writing through to the shared layers.
  const std::vector<double> original = net.save_parameters();
  std::vector<double> blob = original;
  blob.back() += 1.0;
  head->load_parameters(blob);
  EXPECT_EQ(head->save_parameters(), blob);
  blob.front() += 1.0;
  EXPECT_THROW(head->load_parameters(blob), std::logic_error);
  EXPECT_EQ(net.head(blob), nullptr);
  EXPECT_EQ(net.save_parameters(), original);
}

TEST(CoarseNet, HeadBackwardMatchesTheGeneralsTailGradients) {
  // A head's backward stops at its first owned layer; what it computes
  // must be the general's full backward, bit for bit, on those layers.
  util::Rng rng(8);
  CoarseNet net(tiny_config(), rng);
  LandBatch batch = tiny_batch(5, 6, 9);
  batch.mask(3, 2) = 0.0;
  const std::vector<std::size_t> labels{0, 3, 1, 2, 3};

  CoarseWorkspace full;
  net.init_workspace(full);
  Matrix grad_logits;
  softmax_cross_entropy(net.forward(batch, full), labels, &grad_logits);
  net.backward(grad_logits, full);

  auto head = net.head();
  CoarseWorkspace tail;
  head->init_workspace(tail);
  Matrix head_grad_logits;
  softmax_cross_entropy(head->forward(batch, tail), labels,
                        &head_grad_logits);
  head->backward(head_grad_logits, tail);

  ASSERT_EQ(full.param_grads.size(), 8u);
  ASSERT_EQ(tail.param_grads.size(), 4u);
  for (std::size_t k = 0; k < tail.param_grads.size(); ++k)
    EXPECT_TRUE(same_bits(tail.param_grads[k], full.param_grads[4 + k]))
        << "tail gradient " << k;
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

}  // namespace
}  // namespace diagnet::nn
