// Tests for the optimizer and trainer: hand-checked update formulas,
// specialising a head on a frozen representation, convergence on a
// separable synthetic problem, early stopping and determinism.

#include <gtest/gtest.h>

#include <cfloat>
#include <cstring>

#include "nn/sgd.h"
#include "nn/trainer.h"
#include "tests/test_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace diagnet::nn {
namespace {

/// A hand-checked fp32 step: at most four roundings (gradient with decay,
/// velocity, look-ahead, weight) on values of unit magnitude or less.
constexpr double kStepTol = 4.0 * FLT_EPSILON;

/// One unclipped optimizer step from a single gradient accumulator.
void step_once(SgdOptimizer& opt, std::vector<Matrix>& grads) {
  util::ThreadPool serial(1);
  std::vector<Matrix>* shard = &grads;
  opt.step({&shard, 1}, 0.0, serial);
}

TEST(Sgd, PlainMomentumStepMatchesHand) {
  Parameter p(Matrix{{1.0}});
  std::vector<Matrix> grads{Matrix{{0.5}}};
  SgdConfig config;
  config.learning_rate = 0.1;
  config.momentum = 0.9;
  config.weight_decay = 0.0;
  config.nesterov = false;
  SgdOptimizer opt({&p}, config);
  step_once(opt, grads);
  // v = -0.1 * 0.5 = -0.05; w = 1 - 0.05 = 0.95.
  EXPECT_NEAR(p.value(0, 0), 0.95, kStepTol);
  EXPECT_DOUBLE_EQ(grads[0](0, 0), 0.0);  // grads cleared

  grads[0](0, 0) = 0.5;
  step_once(opt, grads);
  // v = 0.9*(-0.05) - 0.05 = -0.095; w = 0.95 - 0.095 = 0.855.
  EXPECT_NEAR(p.value(0, 0), 0.855, 2.0 * kStepTol);  // two steps
}

TEST(Sgd, NesterovStepMatchesHand) {
  Parameter p(Matrix{{1.0}});
  std::vector<Matrix> grads{Matrix{{0.5}}};
  SgdConfig config;
  config.learning_rate = 0.1;
  config.momentum = 0.9;
  config.weight_decay = 0.0;
  config.nesterov = true;
  SgdOptimizer opt({&p}, config);
  step_once(opt, grads);
  // v = -0.05; w += 0.9*(-0.05) - 0.05 = -0.095 -> 0.905.
  EXPECT_NEAR(p.value(0, 0), 0.905, kStepTol);
}

TEST(Sgd, WeightDecayPullsTowardZero) {
  Parameter p(Matrix{{10.0}});
  std::vector<Matrix> grads{Matrix{{0.0}}};
  SgdConfig config;
  config.learning_rate = 0.1;
  config.momentum = 0.0;
  config.weight_decay = 0.01;
  SgdOptimizer opt({&p}, config);
  step_once(opt, grads);
  EXPECT_LT(p.value(0, 0), 10.0);
  EXPECT_GT(p.value(0, 0), 9.9);
}

TEST(Sgd, RejectsBadHyperparameters) {
  Parameter p(Matrix{{1.0}});
  SgdConfig config;
  config.learning_rate = 0.0;
  EXPECT_THROW(SgdOptimizer({&p}, config), std::logic_error);
  config.learning_rate = 0.1;
  config.momentum = 1.0;
  EXPECT_THROW(SgdOptimizer({&p}, config), std::logic_error);
}

/// Synthetic coarse dataset: class determined by which landmark's first
/// feature is the largest outlier, plus a local-feature class.
CoarseDataset synthetic_dataset(std::size_t n, std::uint64_t seed) {
  constexpr std::size_t kL = 4;
  constexpr std::size_t kK = 3;
  constexpr std::size_t kLocal = 2;
  util::Rng rng(seed);
  CoarseDataset data;
  data.land = Matrix(n, kL * kK);
  data.mask = Matrix(n, kL, 1.0);
  data.local = Matrix(n, kLocal);
  data.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < kL * kK; ++c)
      data.land(i, c) = rng.normal(0.0, 0.3);
    for (std::size_t c = 0; c < kLocal; ++c)
      data.local(i, c) = rng.normal(0.0, 0.3);
    const std::size_t label = rng.uniform_index(3);
    data.labels[i] = label;
    if (label == 1) {
      // Anomaly on some landmark's feature 0.
      data.land(i, rng.uniform_index(kL) * kK) += 4.0;
    } else if (label == 2) {
      data.local(i, 0) += 4.0;  // local anomaly
    }
  }
  return data;
}

CoarseNetConfig synthetic_net_config() {
  CoarseNetConfig config;
  config.features_per_landmark = 3;
  config.local_features = 2;
  config.filters = 6;
  config.pool_ops = {PoolOp::Min, PoolOp::Max, PoolOp::Avg};
  config.hidden = {16};
  config.classes = 3;
  return config;
}

TEST(Trainer, LearnsSeparableProblem) {
  const CoarseDataset data = synthetic_dataset(600, 21);
  util::Rng rng(22);
  CoarseNet net(synthetic_net_config(), rng);

  TrainerConfig config;
  config.max_epochs = 30;
  config.patience = 5;
  config.sgd.learning_rate = 0.05;
  config.seed = 23;
  const TrainingHistory history = train_coarse(net, data, config);

  EXPECT_GE(history.epochs_run(), 2u);
  const double final_loss = evaluate_loss(net, data);
  EXPECT_LT(final_loss, 0.35);
  EXPECT_LT(final_loss, history.epochs.front().train_loss);
}

TEST(Trainer, DeterministicGivenSeed) {
  const CoarseDataset data = synthetic_dataset(200, 31);
  TrainerConfig config;
  config.max_epochs = 5;
  config.seed = 32;

  util::Rng rng_a(33);
  CoarseNet a(synthetic_net_config(), rng_a);
  util::Rng rng_b(33);
  CoarseNet b(synthetic_net_config(), rng_b);

  const TrainingHistory ha = train_coarse(a, data, config);
  const TrainingHistory hb = train_coarse(b, data, config);
  ASSERT_EQ(ha.epochs_run(), hb.epochs_run());
  for (std::size_t e = 0; e < ha.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(ha.epochs[e].train_loss, hb.epochs[e].train_loss);
    EXPECT_DOUBLE_EQ(ha.epochs[e].validation_loss,
                     hb.epochs[e].validation_loss);
  }
}

TEST(Trainer, EarlyStoppingRespectsPatience) {
  const CoarseDataset data = synthetic_dataset(200, 41);
  util::Rng rng(42);
  CoarseNet net(synthetic_net_config(), rng);
  TrainerConfig config;
  config.max_epochs = 200;
  config.patience = 2;
  config.sgd.learning_rate = 0.05;
  config.seed = 43;
  const TrainingHistory history = train_coarse(net, data, config);
  EXPECT_LT(history.epochs_run(), 200u);
  EXPECT_LE(history.best_epoch + config.patience + 1, history.epochs_run());
}

TEST(EarlyStopper, FlatPlateauWithZeroMinDeltaTriggersPatience) {
  // Regression: a run of exactly-equal validation losses must count as
  // stale — with min_delta = 0 an equal epoch is NOT an improvement — and
  // must stop after exactly `patience` stale epochs, not patience + 1.
  EarlyStopper stopper(0.0, 3);
  EXPECT_FALSE(stopper.update(0.5));  // first epoch: improvement from inf
  EXPECT_TRUE(stopper.improved());
  EXPECT_FALSE(stopper.update(0.5));  // stale 1
  EXPECT_FALSE(stopper.improved());
  EXPECT_FALSE(stopper.update(0.5));  // stale 2
  EXPECT_TRUE(stopper.update(0.5));   // stale 3 == patience -> stop
  EXPECT_EQ(stopper.stale(), 3u);
}

TEST(EarlyStopper, StaleResetsOnImprovement) {
  EarlyStopper stopper(0.0, 2);
  EXPECT_FALSE(stopper.update(1.0));
  EXPECT_FALSE(stopper.update(1.0));  // stale 1
  EXPECT_EQ(stopper.stale(), 1u);
  EXPECT_FALSE(stopper.update(0.9));  // new best resets the counter
  EXPECT_TRUE(stopper.improved());
  EXPECT_EQ(stopper.stale(), 0u);
  EXPECT_DOUBLE_EQ(stopper.best(), 0.9);
  EXPECT_FALSE(stopper.update(0.9));  // stale 1
  EXPECT_TRUE(stopper.update(0.95));  // stale 2 -> stop
}

TEST(EarlyStopper, MinDeltaIgnoresMarginalImprovements) {
  EarlyStopper stopper(0.01, 2);
  EXPECT_FALSE(stopper.update(1.0));
  EXPECT_FALSE(stopper.update(0.995));  // within min_delta: stale, not best
  EXPECT_FALSE(stopper.improved());
  EXPECT_DOUBLE_EQ(stopper.best(), 1.0);
  EXPECT_TRUE(stopper.update(0.992));  // still within min_delta -> stop
}

TEST(Trainer, PlateauOfEqualLossesStopsAfterPatienceEpochs) {
  // No epoch after the first can beat its validation loss by a margin as
  // large as this min_delta, so training sees a pure plateau. It must run
  // the first (improving) epoch plus exactly `patience` stale epochs.
  const CoarseDataset data = synthetic_dataset(200, 81);
  util::Rng rng(82);
  CoarseNet net(synthetic_net_config(), rng);

  TrainerConfig config;
  config.max_epochs = 50;
  config.patience = 3;
  config.min_delta = 1e9;
  config.seed = 83;
  const TrainingHistory history = train_coarse(net, data, config);

  ASSERT_EQ(history.epochs_run(), 1u + config.patience);
  EXPECT_EQ(history.best_epoch, 0u);
}

TEST(Trainer, RestoreBestRestoresBestValidationLoss) {
  const CoarseDataset data = synthetic_dataset(300, 51);
  util::Rng rng(52);
  CoarseNet net(synthetic_net_config(), rng);
  TrainerConfig config;
  config.max_epochs = 25;
  config.patience = 25;  // never early-stop; later epochs may overfit
  config.seed = 53;
  config.restore_best = true;
  const TrainingHistory history = train_coarse(net, data, config);

  // The restored model should reproduce (approximately) the best epoch's
  // validation loss, not the last epoch's.
  const double best =
      history.epochs[history.best_epoch].validation_loss;
  for (const EpochStats& e : history.epochs)
    EXPECT_GE(e.validation_loss + 1e-12, best);
}

TEST(Trainer, FrozenLayersStayIdenticalDuringSpecialisation) {
  const CoarseDataset data = synthetic_dataset(200, 61);
  util::Rng rng(62);
  CoarseNetConfig shape = synthetic_net_config();
  shape.hidden = {16, 8};  // a first hidden layer the head shares
  CoarseNet net(shape, rng);
  TrainerConfig config;
  config.max_epochs = 4;
  config.seed = 63;
  train_coarse(net, data, config);

  const std::vector<Parameter*> general = net.parameters();
  std::vector<Matrix> before;
  for (const Parameter* p : general) before.push_back(p->value);
  auto head = net.head();
  train_coarse(*head, data, config);

  // The pooling kernel and bias and FC1's weight and bias are the head's
  // representation; training the head keeps their exact bits, and those of
  // the general's own tail. The head's output layer changes.
  ASSERT_EQ(general.size(), 8u);
  for (std::size_t i = 0; i < general.size(); ++i) {
    const Matrix& a = before[i];
    const Matrix& b = general[i]->value;
    ASSERT_TRUE(a.same_shape(b));
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "general parameter " << i;
  }
  const Matrix& bias_before = before.back();
  const Matrix& bias_after = head->parameters().back()->value;
  double diff = 0.0;
  for (std::size_t c = 0; c < bias_before.cols(); ++c)
    diff += std::abs(bias_before(0, c) - bias_after(0, c));
  EXPECT_GT(diff, 0.0);
}

TEST(Dataset, GatherSelectsRows) {
  const CoarseDataset data = synthetic_dataset(10, 71);
  const LandBatch batch = data.gather({3, 7});
  EXPECT_EQ(batch.size(), 2u);
  for (std::size_t c = 0; c < data.land.cols(); ++c) {
    EXPECT_DOUBLE_EQ(batch.land(0, c), data.land(3, c));
    EXPECT_DOUBLE_EQ(batch.land(1, c), data.land(7, c));
  }
  EXPECT_EQ(data.gather_labels({3, 7}),
            (std::vector<std::size_t>{data.labels[3], data.labels[7]}));
}

}  // namespace
}  // namespace diagnet::nn
