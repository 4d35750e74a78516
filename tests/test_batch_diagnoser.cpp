// Parity property test for the batched diagnosis engine: every field of
// every Diagnosis produced by BatchDiagnoser::run must be
// BIT-IDENTICAL to the per-sample DiagNetModel::diagnose result, for every
// batch size and thread count. This is the contract that lets the bench
// binaries and `diagnet evaluate` switch to the batch engine without
// changing any reported number.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/batch_diagnoser.h"
#include "core/diagnet.h"
#include "eval/pipeline.h"
#include "obs/obs.h"
#include "util/thread_pool.h"

namespace diagnet {
namespace {

/// Shared trained pipeline (built once for the whole binary). Reduced from
/// PipelineConfig::small() so the parity sweep stays fast.
eval::Pipeline& pipeline() {
  static auto instance = [] {
    eval::PipelineConfig config = eval::PipelineConfig::small();
    config.campaign.nominal_samples = 300;
    config.campaign.fault_samples = 700;
    config.diagnet.trainer.max_epochs = 4;
    config.diagnet.specialization.max_epochs = 3;
    config.seed = 4242;
    return std::make_unique<eval::Pipeline>(config);
  }();
  return *instance;
}

/// Builds the owning request for test sample `idx` under the test split's
/// landmark mask.
core::DiagnoseRequest request_for(std::size_t idx, bool use_general = false) {
  auto& p = pipeline();
  const data::Sample& sample = p.split().test.samples[idx];
  return {sample.features, sample.service, use_general,
          p.split().test.landmark_available};
}

/// Per-sample reference diagnoses through the unbatched path.
std::vector<core::Diagnosis> sequential_reference(
    const std::vector<std::size_t>& indices) {
  auto& p = pipeline();
  std::vector<core::Diagnosis> out;
  out.reserve(indices.size());
  for (std::size_t idx : indices) {
    core::DiagnoseResponse response = p.diagnet().diagnose(request_for(idx));
    EXPECT_TRUE(response.ok()) << response.status.message();
    out.push_back(std::move(response.diagnosis));
  }
  return out;
}

void expect_bit_identical(const core::Diagnosis& got,
                          const core::Diagnosis& want) {
  // EXPECT_EQ on double vectors is exact (operator== on every element):
  // any rounding difference introduced by batching fails the test.
  EXPECT_EQ(got.scores, want.scores);
  EXPECT_EQ(got.ranking, want.ranking);
  EXPECT_EQ(got.coarse_probs, want.coarse_probs);
  EXPECT_EQ(got.coarse_argmax, want.coarse_argmax);
  EXPECT_EQ(got.attention, want.attention);
  EXPECT_EQ(got.w_unknown, want.w_unknown);
}

TEST(BatchDiagnoser, BitExactAcrossBatchSizesAndThreadCounts) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();
  // Enough samples that batch_size 7 yields several chunks per service
  // group and 256 exercises the larger-than-data case.
  ASSERT_GE(indices.size(), 32u);

  std::vector<core::DiagnoseRequest> requests;
  requests.reserve(indices.size());
  for (std::size_t idx : indices) requests.push_back(request_for(idx));
  const std::vector<core::Diagnosis> reference = sequential_reference(indices);

  for (std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    for (std::size_t batch_size : {1u, 7u, 64u, 256u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch_size=" + std::to_string(batch_size));
      core::BatchDiagnoserConfig config;
      config.batch_size = batch_size;
      config.pool = &pool;
      const core::BatchDiagnoser batcher(p.diagnet(), config);
      const std::vector<core::DiagnoseResponse> got = batcher.run(requests);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("sample " + std::to_string(i));
        ASSERT_TRUE(got[i].ok()) << got[i].status.message();
        expect_bit_identical(got[i].diagnosis, reference[i]);
      }
    }
  }

  // Occlusion rides the same union chunks, walking each head's rows one by
  // one. It costs m forwards per row, so a few rows: two per service, over
  // at least two serving networks.
  std::vector<core::DiagnoseRequest> mixed;
  std::map<std::size_t, std::size_t> per_service;
  std::set<const nn::CoarseNet*> nets;
  for (const std::size_t idx : indices) {
    const std::size_t service = p.split().test.samples[idx].service;
    if (per_service[service]++ >= 2) continue;
    mixed.push_back(request_for(idx));
    nets.insert(&p.diagnet().service_net(service));
  }
  ASSERT_GE(nets.size(), 2u);
  struct RestoreGradient {
    core::DiagNetModel& model;
    ~RestoreGradient() {
      model.set_attention_method(core::AttentionMethod::Gradient);
    }
  } restore{p.diagnet()};
  p.diagnet().set_attention_method(core::AttentionMethod::Occlusion);
  std::vector<core::Diagnosis> occlusion;
  for (const core::DiagnoseRequest& request : mixed)
    occlusion.push_back(p.diagnet().diagnose(request).diagnosis);
  for (std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    for (std::size_t batch_size : {1u, 3u, 64u}) {
      SCOPED_TRACE("occlusion threads=" + std::to_string(threads) +
                   " batch_size=" + std::to_string(batch_size));
      core::BatchDiagnoserConfig config;
      config.batch_size = batch_size;
      config.pool = &pool;
      const std::vector<core::DiagnoseResponse> got =
          core::BatchDiagnoser(p.diagnet(), config).run(mixed);
      ASSERT_EQ(got.size(), mixed.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("sample " + std::to_string(i));
        ASSERT_TRUE(got[i].ok()) << got[i].status.message();
        expect_bit_identical(got[i].diagnosis, occlusion[i]);
      }
    }
  }
}

TEST(BatchDiagnoser, GeneralModelPathMatchesSequential) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();
  const std::size_t n = std::min<std::size_t>(indices.size(), 32);

  std::vector<core::DiagnoseRequest> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    requests.push_back(request_for(indices[i], /*use_general=*/true));
  core::BatchDiagnoserConfig config;
  config.batch_size = 8;
  const core::BatchDiagnoser batcher(p.diagnet(), config);
  const auto got = batcher.run(requests);
  ASSERT_EQ(got.size(), n);

  for (std::size_t i = 0; i < n; ++i) {
    const core::Diagnosis want =
        p.diagnet()
            .diagnose(request_for(indices[i], /*use_general=*/true))
            .diagnosis;
    SCOPED_TRACE("sample " + std::to_string(i));
    ASSERT_TRUE(got[i].ok()) << got[i].status.message();
    expect_bit_identical(got[i].diagnosis, want);
  }
}

TEST(BatchDiagnoser, EmptyRequestListReturnsEmpty) {
  auto& p = pipeline();
  const core::BatchDiagnoser batcher(p.diagnet());
  EXPECT_TRUE(batcher.run({}).empty());
}

TEST(BatchDiagnoser, ZeroBatchSizeThrows) {
  auto& p = pipeline();
  core::BatchDiagnoserConfig config;
  config.batch_size = 0;
  EXPECT_THROW(core::BatchDiagnoser(p.diagnet(), config), std::exception);
}

TEST(BatchDiagnoser, ForestCountersAdvanceByTheScoredRows) {
  // The forest scores a chunk per call, so forest.score is one span per
  // chunk; forest.predictions and diagnet.ensemble.blends still count rows,
  // and only rows that reach the score stage.
  auto& p = pipeline();
  ASSERT_TRUE(p.diagnet().config().use_ensemble);
  const std::vector<std::size_t> indices = p.faulty_test_indices();
  ASSERT_FALSE(indices.empty());
  std::vector<core::DiagnoseRequest> requests;
  for (std::size_t i = 0; i < 256; ++i)
    requests.push_back(request_for(indices[i % indices.size()]));
  requests[17].features[3] = std::nan("");
  requests[200].landmark_available.assign(
      requests[200].landmark_available.size(), false);

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "telemetry is forced off";
  obs::Counter& predictions =
      obs::Registry::instance().counter("forest.predictions");
  obs::Counter& blends =
      obs::Registry::instance().counter("diagnet.ensemble.blends");
  const std::uint64_t predictions_before = predictions.value();
  const std::uint64_t blends_before = blends.value();
  util::ThreadPool pool(2);
  core::BatchDiagnoserConfig config;
  config.batch_size = 32;
  config.pool = &pool;
  const auto got = core::BatchDiagnoser(p.diagnet(), config).run(requests);
  obs::set_enabled(was_enabled);

  std::uint64_t scored = 0;
  for (const core::DiagnoseResponse& response : got)
    scored += response.ok() ? 1 : 0;
  EXPECT_EQ(scored, 254u);
  EXPECT_FALSE(got[17].ok());
  EXPECT_FALSE(got[200].ok());
  EXPECT_EQ(predictions.value() - predictions_before, scored);
  EXPECT_EQ(blends.value() - blends_before, scored);
}

/// Request poisons that must fail alone: a landmark mask with nothing
/// available, a NaN feature, a row whose features are all 1e308, and one
/// finite feature whose normalised value overflows float (a loss ratio of
/// 1e300 normalises to ~1e150), which must never reach the fp32 network.
enum class Poison { kNoLandmark, kNanFeature, kHugeFeatures, kFloatOverflow };

const char* poison_name(Poison poison) {
  switch (poison) {
    case Poison::kNoLandmark: return "NoLandmark";
    case Poison::kNanFeature: return "NanFeature";
    case Poison::kHugeFeatures: return "HugeFeatures";
    case Poison::kFloatOverflow: return "FloatOverflow";
  }
  return "?";
}

class PoisonRow
    : public ::testing::TestWithParam<std::tuple<Poison, std::size_t>> {};

TEST_P(PoisonRow, FailsAloneWithInvalidArgument) {
  const auto [poison, threads] = GetParam();
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();
  ASSERT_GE(indices.size(), 3u);

  core::DiagnoseRequest bad = request_for(indices[1]);
  const std::size_t overflowing =
      p.feature_space().landmark_feature(0, data::Metric::Loss);
  if (poison == Poison::kNoLandmark)
    bad.landmark_available.assign(bad.landmark_available.size(), false);
  else if (poison == Poison::kNanFeature)
    bad.features[3] = std::nan("");
  else if (poison == Poison::kHugeFeatures)
    bad.features.assign(bad.features.size(), 1e308);
  else
    bad.features[overflowing] = 1e300;
  const std::vector<core::DiagnoseRequest> requests = {
      request_for(indices[0]), bad, request_for(indices[2])};

  util::ThreadPool pool(threads);
  core::BatchDiagnoserConfig config;
  config.pool = &pool;
  const core::BatchDiagnoser batcher(p.diagnet(), config);
  const std::vector<core::DiagnoseResponse> got = batcher.run(requests);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[1].status.code(), util::StatusCode::kInvalidArgument)
      << got[1].status.message();
  if (poison == Poison::kFloatOverflow) {
    EXPECT_NE(got[1].status.message().find(
                  "feature " + std::to_string(overflowing) + " "),
              std::string::npos)
        << got[1].status.message();
  }

  for (const std::size_t i : {0u, 2u}) {
    SCOPED_TRACE("clean row " + std::to_string(i));
    const std::vector<core::DiagnoseResponse> alone = batcher.run({requests[i]});
    ASSERT_TRUE(got[i].ok()) << got[i].status.message();
    ASSERT_TRUE(alone[0].ok()) << alone[0].status.message();
    expect_bit_identical(got[i].diagnosis, alone[0].diagnosis);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchDiagnoser, PoisonRow,
    ::testing::Combine(::testing::Values(Poison::kNoLandmark,
                                         Poison::kNanFeature,
                                         Poison::kHugeFeatures,
                                         Poison::kFloatOverflow),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const auto& param_info) {
      return std::string(poison_name(std::get<0>(param_info.param))) +
             "_threads" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace diagnet
