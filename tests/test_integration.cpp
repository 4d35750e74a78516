// End-to-end integration tests: a miniature version of the paper's full
// experiment through the DiagNetModel façade and the shared Pipeline.
// These are the slowest tests in the suite (a few seconds): they train
// real models on a small simulated campaign.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "eval/pipeline.h"

namespace diagnet::eval {
namespace {

/// One shared trained pipeline for the whole file.
Pipeline& pipeline() {
  static auto instance = [] {
    PipelineConfig config = PipelineConfig::small();
    config.seed = 4242;
    return std::make_unique<Pipeline>(config);
  }();
  return *instance;
}

TEST(Integration, SplitRespectsHiddenLandmarkProtocol) {
  const auto& split = pipeline().split();
  EXPECT_EQ(split.hidden_landmarks.size(), 3u);
  EXPECT_GT(split.train.count_faulty(), 0u);
  EXPECT_GT(pipeline().faulty_test_indices(true).size(), 0u);
  EXPECT_GT(pipeline().faulty_test_indices(false).size(), 0u);
}

TEST(Integration, DiagnosisIsAWellFormedRanking) {
  auto& p = pipeline();
  const auto faulty = p.faulty_test_indices();
  ASSERT_FALSE(faulty.empty());
  const auto& sample = p.split().test.samples[faulty[0]];
  core::DiagnoseResponse response = p.diagnet().diagnose(
      {sample.features, sample.service, false,
       p.split().test.landmark_available});
  ASSERT_TRUE(response.ok()) << response.status.message();
  const core::Diagnosis& diagnosis = response.diagnosis;

  EXPECT_EQ(diagnosis.scores.size(), 55u);
  EXPECT_NEAR(std::accumulate(diagnosis.scores.begin(),
                              diagnosis.scores.end(), 0.0),
              1.0, 1e-6);
  // ranking is a permutation of the cause space, sorted by score.
  std::vector<std::size_t> sorted = diagnosis.ranking;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t j = 0; j < sorted.size(); ++j) EXPECT_EQ(sorted[j], j);
  for (std::size_t r = 1; r < diagnosis.ranking.size(); ++r)
    EXPECT_GE(diagnosis.scores[diagnosis.ranking[r - 1]],
              diagnosis.scores[diagnosis.ranking[r]]);
  EXPECT_GE(diagnosis.w_unknown, 0.0);
  EXPECT_LE(diagnosis.w_unknown, 1.0);
}

TEST(Integration, ModelsBeatRandomOnKnownFaults) {
  auto& p = pipeline();
  const auto known = p.faulty_test_indices(false);
  ASSERT_GT(known.size(), 20u);
  // Random guessing: R@5 = 5/55 ≈ 0.09.
  EXPECT_GT(p.recall(ModelKind::DiagNet, known, 5), 0.35);
  EXPECT_GT(p.recall(ModelKind::RandomForest, known, 5), 0.35);
}

TEST(Integration, DiagNetBeatsForestOnNewLandmarks) {
  // The paper's headline property: the forest cannot name never-seen
  // causes; DiagNet can (Fig. 5a).
  auto& p = pipeline();
  const auto fresh = p.faulty_test_indices(true);
  ASSERT_GT(fresh.size(), 20u);
  const double diagnet = p.recall(ModelKind::DiagNet, fresh, 5);
  const double forest = p.recall(ModelKind::RandomForest, fresh, 5);
  EXPECT_GT(diagnet, forest);
}

TEST(Integration, SpecialisedModelsExistAndDiffer) {
  auto& p = pipeline();
  ASSERT_FALSE(p.specialization_history().empty());
  const auto service = p.specialization_history().begin()->first;
  EXPECT_TRUE(p.diagnet().has_specialized(service));

  const auto faulty = p.faulty_test_indices();
  const auto& sample = p.split().test.samples[faulty[0]];
  const auto special =
      p.diagnet()
          .diagnose({sample.features, service, false,
                     p.split().test.landmark_available})
          .diagnosis;
  const auto general =
      p.diagnet()
          .diagnose({sample.features, 0, true,
                     p.split().test.landmark_available})
          .diagnosis;
  // Same cause space, (almost surely) different scores.
  EXPECT_EQ(special.scores.size(), general.scores.size());
  double diff = 0.0;
  for (std::size_t j = 0; j < special.scores.size(); ++j)
    diff += std::abs(special.scores[j] - general.scores[j]);
  EXPECT_GT(diff, 1e-9);
}

TEST(Integration, SpecialisationConvergesFasterThanGeneral) {
  auto& p = pipeline();
  const auto& general = p.general_history();
  double mean_epochs = 0.0;
  for (const auto& [service, history] : p.specialization_history())
    mean_epochs += static_cast<double>(history.best_epoch + 1);
  mean_epochs /= static_cast<double>(p.specialization_history().size());
  // Paper Fig. 9: specialised models converge in < 5 epochs vs ~20.
  EXPECT_LE(mean_epochs, static_cast<double>(general.best_epoch + 1) + 2.0);
}

TEST(Integration, CoarsePredictionsAreValidFamilies) {
  auto& p = pipeline();
  auto faulty = p.faulty_test_indices();
  faulty.resize(std::min<std::size_t>(30, faulty.size()));
  for (std::size_t family : p.coarse_predictions(faulty))
    EXPECT_LT(family, netsim::kFaultFamilies);
}

TEST(Integration, InferenceOnFewerLandmarksThanTraining) {
  // Root-cause extensibility in the "shrinking fleet" direction: drop 4
  // landmarks at inference time; diagnosis still works on the rest.
  auto& p = pipeline();
  const auto faulty = p.faulty_test_indices();
  const auto& sample = p.split().test.samples[faulty[0]];
  std::vector<bool> partial(p.feature_space().landmark_count(), true);
  partial[1] = partial[4] = partial[6] = partial[9] = false;
  auto diagnosis =
      p.diagnet()
          .diagnose({sample.features, sample.service, false, partial})
          .diagnosis;
  EXPECT_EQ(diagnosis.scores.size(), 55u);
  // Dropped landmarks receive no attention mass.
  for (std::size_t lam : {1, 4, 6, 9})
    for (std::size_t m = 0; m < 5; ++m) {
      const std::size_t j = p.feature_space().landmark_feature(
          lam, static_cast<data::Metric>(m));
      EXPECT_DOUBLE_EQ(diagnosis.attention[j], 0.0);
    }
}

TEST(Integration, AblationTogglesChangeScores) {
  auto& p = pipeline();
  const auto faulty = p.faulty_test_indices();
  const auto& sample = p.split().test.samples[faulty[0]];
  const auto& avail = p.split().test.landmark_available;

  const core::DiagnoseRequest request{sample.features, sample.service, false,
                                      avail};
  auto full = p.diagnet().diagnose(request).diagnosis;
  p.diagnet().set_ensemble(false);
  auto attention_only = p.diagnet().diagnose(request).diagnosis;
  p.diagnet().set_ensemble(true);

  EXPECT_DOUBLE_EQ(attention_only.w_unknown, 1.0);
  double diff = 0.0;
  for (std::size_t j = 0; j < full.scores.size(); ++j)
    diff += std::abs(full.scores[j] - attention_only.scores[j]);
  EXPECT_GT(diff, 1e-9);
}

TEST(Integration, UntrainedModelRejectsRequests) {
  const data::FeatureSpace& fs = pipeline().feature_space();
  core::DiagNetModel fresh(fs, core::DiagNetConfig::defaults());
  EXPECT_FALSE(fresh.trained());
  const core::DiagnoseResponse response = fresh.diagnose(
      {std::vector<double>(55, 0.0), 0, false, std::vector<bool>(10, true)});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status.code(), util::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace diagnet::eval
