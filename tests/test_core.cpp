// Tests for DiagNet's inference components: gradient attention (§III-E),
// Algorithm 1 score weighting, and ensemble averaging (§III-F).

#include <gtest/gtest.h>

#include <numeric>

#include "core/attention.h"
#include "core/ensemble.h"
#include "core/score_weighting.h"
#include "data/feature_space.h"
#include "tests/test_helpers.h"
#include "testkit/nets.h"

namespace diagnet::core {
namespace {

struct CoreFixture {
  netsim::Topology topology = netsim::default_topology();
  data::FeatureSpace fs{topology};
  nn::CoarseNetConfig config;
  std::unique_ptr<nn::CoarseNet> net;

  CoreFixture() {
    config.features_per_landmark = fs.metrics_per_landmark();
    config.local_features = fs.local_count();
    config.filters = 6;
    config.pool_ops = {nn::PoolOp::Min, nn::PoolOp::Max, nn::PoolOp::Avg};
    config.hidden = {16, 8};
    config.classes = netsim::kFaultFamilies;
    util::Rng rng(5);
    net = std::make_unique<nn::CoarseNet>(config, rng);
  }

  nn::LandBatch sample(std::uint64_t seed, std::size_t masked = SIZE_MAX) {
    nn::LandBatch batch;
    batch.land = test::random_matrix(1, fs.landmark_count() * 5, seed);
    batch.mask = nn::Matrix(1, fs.landmark_count(), 1.0);
    if (masked != SIZE_MAX) batch.mask(0, masked) = 0.0;
    batch.local = test::random_matrix(1, 5, seed + 1);
    return batch;
  }
};

TEST(Attention, GammaIsANormalisedDistribution) {
  CoreFixture fixture;
  const AttentionResult result =
      testkit::attention(*fixture.net, fixture.sample(1), fixture.fs).front();
  EXPECT_EQ(result.gamma.size(), 55u);
  double sum = 0.0;
  for (double g : result.gamma) {
    EXPECT_GE(g, 0.0);
    sum += g;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);

  EXPECT_EQ(result.coarse_probs.size(), netsim::kFaultFamilies);
  EXPECT_NEAR(std::accumulate(result.coarse_probs.begin(),
                              result.coarse_probs.end(), 0.0),
              1.0, 1e-9);
  EXPECT_EQ(result.coarse_argmax,
            static_cast<std::size_t>(
                std::max_element(result.coarse_probs.begin(),
                                 result.coarse_probs.end()) -
                result.coarse_probs.begin()));
}

TEST(Attention, MaskedLandmarkGetsZeroAttention) {
  CoreFixture fixture;
  const std::size_t masked = 3;
  const AttentionResult result = testkit::attention(
      *fixture.net, fixture.sample(2, masked), fixture.fs).front();
  for (std::size_t m = 0; m < 5; ++m) {
    const std::size_t j =
        fixture.fs.landmark_feature(masked, static_cast<data::Metric>(m));
    EXPECT_DOUBLE_EQ(result.gamma[j], 0.0);
  }
}

TEST(Attention, DoesNotLeakParameterGradients) {
  CoreFixture fixture;
  testkit::attention(*fixture.net, fixture.sample(3), fixture.fs);
  for (nn::Parameter* param : fixture.net->parameters())
    for (std::size_t i = 0; i < param->grad.size(); ++i)
      EXPECT_DOUBLE_EQ(param->grad.data()[i], 0.0);
}

TEST(Attention, RejectsBatches) {
  // Occlusion probes one sample at a time; the gradient path takes whole
  // batches but rejects a group row outside the batch.
  CoreFixture fixture;
  nn::LandBatch batch = fixture.sample(4);
  nn::LandBatch two;
  two.land = nn::Matrix(2, batch.land.cols());
  two.mask = nn::Matrix(2, batch.mask.cols(), 1.0);
  two.local = nn::Matrix(2, batch.local.cols());
  EXPECT_THROW(compute_occlusion_attention(*fixture.net, two, fixture.fs),
               std::logic_error);
  EXPECT_THROW(compute_attention_shared_pooling({{fixture.net.get(), {0, 2}}},
                                                two, fixture.fs),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Algorithm 1

std::vector<double> uniform_gamma(std::size_t m) {
  return std::vector<double>(m, 1.0 / static_cast<double>(m));
}

TEST(ScoreWeighting, PreservesNormalisation) {
  CoreFixture fixture;
  std::vector<double> gamma = uniform_gamma(55);
  std::vector<double> coarse(netsim::kFaultFamilies, 0.05);
  coarse[static_cast<std::size_t>(netsim::FaultFamily::Latency)] = 0.7;
  const auto tuned = weight_scores(
      gamma, coarse,
      static_cast<std::size_t>(netsim::FaultFamily::Latency), fixture.fs);
  EXPECT_NEAR(std::accumulate(tuned.begin(), tuned.end(), 0.0), 1.0, 1e-9);
}

TEST(ScoreWeighting, BoostsWinningFamilyPenalisesOthers) {
  CoreFixture fixture;
  const std::vector<double> gamma = uniform_gamma(55);
  std::vector<double> coarse(netsim::kFaultFamilies, 0.02);
  const auto latency =
      static_cast<std::size_t>(netsim::FaultFamily::Latency);
  coarse[latency] = 0.88;
  const auto tuned = weight_scores(gamma, coarse, latency, fixture.fs);

  // s (attention mass of latency features) = 11/55 = 0.2; w = 0.88:
  // latency features should be boosted, all others shrunk.
  for (std::size_t j = 0; j < 55; ++j) {
    if (fixture.fs.family_of(j) == netsim::FaultFamily::Latency)
      EXPECT_GT(tuned[j], gamma[j]);
    else
      EXPECT_LT(tuned[j], gamma[j]);
  }
}

TEST(ScoreWeighting, ExactBonusAndPenaltyFactors) {
  CoreFixture fixture;
  const std::vector<double> gamma = uniform_gamma(55);
  std::vector<double> coarse(netsim::kFaultFamilies, 0.0);
  const auto loss = static_cast<std::size_t>(netsim::FaultFamily::Loss);
  coarse[loss] = 0.5;
  coarse[0] = 0.5;  // w = 0.5 (after normalising by the prob sum = 1)
  const auto tuned = weight_scores(gamma, coarse, loss, fixture.fs);

  const double s = 10.0 / 55.0;  // 10 loss features, uniform attention
  const double w = 0.5;
  const std::size_t loss_feature = fixture.fs.landmark_feature(
      0, data::Metric::Loss);
  const std::size_t other_feature = fixture.fs.landmark_feature(
      0, data::Metric::Latency);
  EXPECT_NEAR(tuned[loss_feature], gamma[loss_feature] * w / s, 1e-12);
  EXPECT_NEAR(tuned[other_feature],
              gamma[other_feature] * (1.0 - w) / (1.0 - s), 1e-12);
}

TEST(ScoreWeighting, NominalWinnerLeavesScoresUntouched) {
  // Nominal has no features, so s = 0 — the algorithm's extreme case.
  CoreFixture fixture;
  const std::vector<double> gamma = uniform_gamma(55);
  std::vector<double> coarse(netsim::kFaultFamilies, 0.01);
  coarse[static_cast<std::size_t>(netsim::FaultFamily::Nominal)] = 0.94;
  const auto tuned = weight_scores(
      gamma, coarse,
      static_cast<std::size_t>(netsim::FaultFamily::Nominal), fixture.fs);
  EXPECT_EQ(tuned, gamma);
}

TEST(ScoreWeighting, AllMassOnFamilyLeavesScoresUntouched) {
  // s = 1 extreme case: every bit of attention already on the family.
  CoreFixture fixture;
  std::vector<double> gamma(55, 0.0);
  const auto latency_features =
      fixture.fs.features_of_family(netsim::FaultFamily::Latency);
  for (std::size_t j : latency_features)
    gamma[j] = 1.0 / static_cast<double>(latency_features.size());
  std::vector<double> coarse(netsim::kFaultFamilies, 0.1);
  const auto tuned = weight_scores(
      gamma, coarse,
      static_cast<std::size_t>(netsim::FaultFamily::Latency), fixture.fs);
  EXPECT_EQ(tuned, gamma);
}

// ---------------------------------------------------------------------------
// Ensemble averaging

TEST(Ensemble, BlendsWithUnknownMass) {
  const std::vector<double> gamma{0.5, 0.3, 0.2};
  const std::vector<double> alpha{0.1, 0.1, 0.8};
  const std::vector<std::size_t> unknown{0};  // w_U = gamma[0] = 0.5
  double w = 0.0;
  const auto final_scores = ensemble_average(gamma, alpha, unknown, &w);
  EXPECT_DOUBLE_EQ(w, 0.5);
  EXPECT_NEAR(final_scores[0], 0.5 * 0.5 + 0.5 * 0.1, 1e-12);
  EXPECT_NEAR(final_scores[2], 0.5 * 0.2 + 0.5 * 0.8, 1e-12);
}

TEST(Ensemble, NoUnknownFeaturesMeansPureAuxiliary) {
  const std::vector<double> gamma{0.9, 0.1};
  const std::vector<double> alpha{0.2, 0.8};
  const auto final_scores = ensemble_average(gamma, alpha, {});
  EXPECT_EQ(final_scores, alpha);
}

TEST(Ensemble, AllMassUnknownMeansPureAttention) {
  const std::vector<double> gamma{0.6, 0.4};
  const std::vector<double> alpha{0.0, 1.0};
  const auto final_scores = ensemble_average(gamma, alpha, {0, 1});
  EXPECT_EQ(final_scores, gamma);
}

TEST(Ensemble, PreservesNormalisation) {
  const std::vector<double> gamma{0.25, 0.25, 0.5};
  const std::vector<double> alpha{0.6, 0.2, 0.2};
  const auto final_scores = ensemble_average(gamma, alpha, {2});
  EXPECT_NEAR(
      std::accumulate(final_scores.begin(), final_scores.end(), 0.0), 1.0,
      1e-12);
}

TEST(Ensemble, RejectsMismatchedSizes) {
  EXPECT_THROW(ensemble_average({0.5}, {0.5, 0.5}, {}), std::logic_error);
  EXPECT_THROW(ensemble_average({1.0}, {1.0}, {3}), std::logic_error);
}

}  // namespace
}  // namespace diagnet::core
