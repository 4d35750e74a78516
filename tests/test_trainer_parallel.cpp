// Regression tests for the data-parallel training engine: training must be
// BIT-identical for every TrainerConfig::threads value (the shard partition
// and reduction order are fixed, so the worker count can only change which
// thread runs which shard).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "nn/coarse_net.h"
#include "nn/softmax.h"
#include "nn/trainer.h"
#include "obs/telemetry.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace diagnet::nn {
namespace {

/// Synthetic coarse dataset: class determined by which landmark's first
/// feature is the largest outlier, plus a local-feature class (mirrors
/// test_sgd_trainer.cpp).
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
      data.land(i, rng.uniform_index(kL) * kK) += 4.0;
    } else if (label == 2) {
      data.local(i, 0) += 4.0;
    }
  }
  return data;
}

CoarseNetConfig synthetic_net_config() {
  CoarseNetConfig config;
  config.features_per_landmark = 3;
  config.local_features = 2;
  config.filters = 6;
  config.pool_ops = {PoolOp::Min, PoolOp::Max, PoolOp::Avg, PoolOp::Var};
  config.hidden = {16, 8};
  config.classes = 3;
  return config;
}

/// Bitwise equality of two parameter blobs — stricter than EXPECT_DOUBLE_EQ
/// (which treats -0.0 == +0.0); the determinism contract is exact bits.
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Train a fresh net from make_net() once per thread count: every run
/// must report the same losses and end with the same parameter bits.
template <typename MakeNet>
void expect_thread_invariant(const CoarseDataset& data, MakeNet make_net) {
  TrainingHistory ref_history;
  std::vector<double> ref_params;
  bool have_ref = false;

  // threads = 1 is the serial path; 2 and 4 exercise dedicated pools; 0 the
  // process-wide pool. All four must produce the same bits.
  for (const std::size_t threads : {1u, 2u, 4u, 0u}) {
    const std::unique_ptr<CoarseNet> net = make_net();
    TrainerConfig config;
    config.max_epochs = 4;
    config.batch_size = 37;  // deliberately not a multiple of the shard size
    config.seed = 73;
    config.threads = threads;
    const TrainingHistory history = train_coarse(*net, data, config);
    const std::vector<double> params = net->save_parameters();

    if (!have_ref) {
      ref_history = history;
      ref_params = params;
      have_ref = true;
      continue;
    }
    ASSERT_EQ(history.epochs_run(), ref_history.epochs_run())
        << "threads=" << threads;
    for (std::size_t e = 0; e < history.epochs.size(); ++e) {
      EXPECT_DOUBLE_EQ(history.epochs[e].train_loss,
                       ref_history.epochs[e].train_loss)
          << "threads=" << threads << " epoch " << e;
      EXPECT_DOUBLE_EQ(history.epochs[e].validation_loss,
                       ref_history.epochs[e].validation_loss)
          << "threads=" << threads << " epoch " << e;
    }
    EXPECT_TRUE(bits_equal(params, ref_params))
        << "serialized model differs at threads=" << threads;
  }
}

TEST(TrainerParallel, BitIdenticalAcrossThreadCounts) {
  expect_thread_invariant(synthetic_dataset(300, 71), [] {
    util::Rng rng(72);
    return std::make_unique<CoarseNet>(synthetic_net_config(), rng);
  });
}

TEST(TrainerParallel, HeadBitIdenticalAcrossThreadCounts) {
  // Specialisation trains a head's tail only: its shorter backward, reduce,
  // clip and optimizer must keep the same thread-count invariance.
  util::Rng rng(74);
  CoarseNet general(synthetic_net_config(), rng);
  TrainerConfig config;
  config.max_epochs = 2;
  config.seed = 75;
  train_coarse(general, synthetic_dataset(300, 71), config);
  expect_thread_invariant(synthetic_dataset(120, 76),
                          [&] { return general.head(); });
}

TEST(TrainerParallel, ClipFiringBitIdenticalAcrossThreadCounts) {
  // FC1's weight (26 x 300 = 7800 floats) spans two optimizer slices, the
  // second one partial, and a tiny clip_norm fires the clip on every step:
  // the per-slice norm and the scaled update must not depend on the pool.
  CoarseNetConfig net_config = synthetic_net_config();
  net_config.hidden = {300, 8};
  const CoarseDataset data = synthetic_dataset(300, 77);
  TrainerConfig config;
  config.max_epochs = 3;
  config.batch_size = 37;
  config.seed = 78;
  config.clip_norm = 1e-3;

  obs::Registry::instance().reset_for_test();
  obs::set_enabled(true);
  std::vector<double> ref_params;
  for (const std::size_t threads : {1u, 2u, 4u, 0u}) {
    util::Rng rng(79);
    CoarseNet net(net_config, rng);
    config.threads = threads;
    obs::Counter& fired =
        obs::Registry::instance().counter("trainer.clip.fired");
    fired.reset();
    const TrainingHistory history = train_coarse(net, data, config);
    // 300 rows less the 10% validation split, in batches of 37.
    const std::size_t steps = history.epochs_run() * ((270 + 36) / 37);
    EXPECT_EQ(fired.value(), steps) << "threads=" << threads;
    const std::vector<double> params = net.save_parameters();
    if (ref_params.empty()) ref_params = params;
    EXPECT_TRUE(bits_equal(params, ref_params))
        << "serialized model differs at threads=" << threads;
  }
  obs::set_enabled(false);
  obs::Registry::instance().reset_for_test();
}

TEST(TrainerParallel, GatherIntoBufferMatchesAllocatingGather) {
  const CoarseDataset data = synthetic_dataset(30, 101);
  const std::vector<std::size_t> rows = {7, 3, 3, 29, 0, 15};

  const LandBatch fresh = data.gather(rows);

  // Reused buffers start oversized so capacity-aware resize is exercised.
  LandBatch reused;
  reused.land = Matrix(64, data.land.cols(), 9.0);
  reused.mask = Matrix(64, data.mask.cols(), 9.0);
  reused.local = Matrix(64, data.local.cols(), 9.0);
  data.gather(rows.data(), rows.size(), reused);

  std::vector<std::size_t> labels(99, 0);
  data.gather_labels(rows.data(), rows.size(), labels);

  ASSERT_TRUE(fresh.land.same_shape(reused.land));
  ASSERT_TRUE(fresh.mask.same_shape(reused.mask));
  ASSERT_TRUE(fresh.local.same_shape(reused.local));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t c = 0; c < fresh.land.cols(); ++c)
      EXPECT_DOUBLE_EQ(fresh.land(i, c), reused.land(i, c));
    for (std::size_t c = 0; c < fresh.mask.cols(); ++c)
      EXPECT_DOUBLE_EQ(fresh.mask(i, c), reused.mask(i, c));
    for (std::size_t c = 0; c < fresh.local.cols(); ++c)
      EXPECT_DOUBLE_EQ(fresh.local(i, c), reused.local(i, c));
    EXPECT_EQ(labels[i], data.labels[rows[i]]);
  }
}

}  // namespace
}  // namespace diagnet::nn
