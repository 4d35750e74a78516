// Tests for binary IO, forest/normalizer serialisation, the model
// registry, dataset CSV round-trips, and the occlusion attention variant.

#include <gtest/gtest.h>

#include <sstream>

#include "core/registry.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/split.h"
#include "eval/pipeline.h"
#include "testkit/fuzz.h"
#include "testkit/nets.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace diagnet {
namespace {

TEST(BinaryIo, ScalarRoundTrips) {
  std::stringstream ss;
  util::BinaryWriter writer(ss);
  writer.write_u64(0xdeadbeefULL);
  writer.write_double(-3.25);
  writer.write_bool(true);
  writer.write_string("hello");
  writer.write_doubles({1.0, 2.5});
  writer.write_indices({7, 0, 42});

  util::BinaryReader reader(ss);
  EXPECT_EQ(reader.read_u64(), 0xdeadbeefULL);
  EXPECT_DOUBLE_EQ(reader.read_double(), -3.25);
  EXPECT_TRUE(reader.read_bool());
  EXPECT_EQ(reader.read_string(), "hello");
  EXPECT_EQ(reader.read_doubles(), (std::vector<double>{1.0, 2.5}));
  EXPECT_EQ(reader.read_indices(), (std::vector<std::size_t>{7, 0, 42}));
}

TEST(BinaryIo, TruncatedInputThrows) {
  std::stringstream ss;
  util::BinaryWriter writer(ss);
  writer.write_u64(1);
  util::BinaryReader reader(ss);
  reader.read_u64();
  EXPECT_THROW(reader.read_double(), std::runtime_error);
}

TEST(BinaryIo, ExpectTagMismatchThrows) {
  std::stringstream ss;
  util::BinaryWriter writer(ss);
  writer.write_u64(1);
  util::BinaryReader reader(ss);
  EXPECT_THROW(reader.expect_u64(2, "test"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// The shared small pipeline gives us trained artifacts to serialise.

eval::Pipeline& pipeline() {
  static auto instance = [] {
    eval::PipelineConfig config = eval::PipelineConfig::small();
    config.seed = 777;
    return std::make_unique<eval::Pipeline>(config);
  }();
  return *instance;
}

TEST(ForestPersistence, RoundTripPreservesScores) {
  const auto& original = pipeline().rf_baseline();
  std::stringstream ss;
  util::BinaryWriter writer(ss);
  original.save(writer);

  forest::ExtensibleForest restored;
  util::BinaryReader reader(ss);
  restored.load(reader);

  EXPECT_EQ(restored.total_causes(), original.total_causes());
  EXPECT_EQ(restored.trained_causes(), original.trained_causes());
  const std::vector<double> sample(55, 0.3);
  EXPECT_EQ(restored.score_causes(sample), original.score_causes(sample));
}

TEST(ModelRegistry, RoundTripPreservesDiagnoses) {
  auto& p = pipeline();
  std::stringstream ss;
  ASSERT_TRUE(core::try_save_model(p.diagnet(), ss).ok());
  auto restored = core::try_load_model(ss, p.feature_space());
  ASSERT_TRUE(restored.ok()) << restored.status().message();

  ASSERT_TRUE((*restored)->trained());
  EXPECT_EQ((*restored)->unknown_features(), p.diagnet().unknown_features());

  const auto faulty = p.faulty_test_indices();
  const std::vector<bool> all(p.feature_space().landmark_count(), true);
  for (std::size_t i = 0; i < std::min<std::size_t>(10, faulty.size());
       ++i) {
    const auto& sample = p.split().test.samples[faulty[i]];
    const core::DiagnoseRequest request{sample.features, sample.service,
                                        false, all};
    const auto a = p.diagnet().diagnose(request).diagnosis;
    const auto b = (*restored)->diagnose(request).diagnosis;
    ASSERT_EQ(a.ranking, b.ranking);
    for (std::size_t j = 0; j < a.scores.size(); ++j)
      EXPECT_DOUBLE_EQ(a.scores[j], b.scores[j]);
  }
}

TEST(ModelRegistry, SpecialisedHeadsSurvive) {
  auto& p = pipeline();
  std::stringstream ss;
  ASSERT_TRUE(core::try_save_model(p.diagnet(), ss).ok());
  auto restored = core::try_load_model(ss, p.feature_space());
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  for (const auto& [service, history] : p.specialization_history())
    EXPECT_TRUE((*restored)->has_specialized(service));
}

TEST(ModelRegistry, GarbageInputRejected) {
  std::stringstream ss("this is not a model file");
  const auto loaded = core::try_load_model(ss, pipeline().feature_space());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
}

TEST(ModelRegistry, FuzzSmokeRejectsAThousandCorruptions) {
  // Fixed-seed smoke over the registry v2 bundle: 1000 random corruptions
  // (truncations, bit flips, scribbles, hostile length fields) of a real
  // trained bundle must every one be rejected with a clean exception —
  // never a crash, never a silent load. The deeper randomized sweep lives
  // in `diagnet selfcheck` / test_proptest_fuzz (suite fuzz.bundle).
  auto& p = pipeline();
  std::stringstream clean;
  ASSERT_TRUE(core::try_save_model(p.diagnet(), clean).ok());
  const std::string bytes = clean.str();

  util::Rng rng(20260806);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string descr;
    const std::string bad = testkit::fuzz::corrupt(rng, bytes, &descr);
    std::istringstream is(bad);
    EXPECT_FALSE(core::try_load_model(is, p.feature_space()).ok())
        << "corruption not rejected (trial " << trial << ", " << descr
        << ", seed 20260806)";
  }
}

TEST(ModelRegistry, ChecksumCatchesSingleFlippedBitInWeights) {
  // The v2 payload checksum closes the old silent-garbage hole: flip one
  // bit in the middle of the payload (weight doubles, not framing) and the
  // load must fail loudly.
  auto& p = pipeline();
  std::stringstream clean;
  ASSERT_TRUE(core::try_save_model(p.diagnet(), clean).ok());
  std::string bytes = clean.str();
  ASSERT_GT(bytes.size(), 256u);
  bytes[bytes.size() / 2] ^= 0x10;
  std::istringstream is(bytes);
  const auto loaded = core::try_load_model(is, p.feature_space());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
}

TEST(ModelRegistry, UntrainedModelCannotBeSaved) {
  core::DiagNetModel fresh(pipeline().feature_space(),
                           core::DiagNetConfig::defaults());
  std::stringstream ss;
  EXPECT_EQ(core::try_save_model(fresh, ss).code(),
            util::StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Dataset CSV

TEST(DatasetCsv, RoundTripPreservesEverything) {
  const auto& fs = pipeline().feature_space();
  // A small slice with both faulty and nominal samples.
  data::Dataset original;
  original.landmark_available = pipeline().split().train.landmark_available;
  for (std::size_t i = 0; i < 50 && i < pipeline().split().test.size(); ++i)
    original.samples.push_back(pipeline().split().test.samples[i]);

  std::stringstream ss;
  ASSERT_TRUE(data::try_write_csv(original, fs, ss).ok());
  auto restored_or = data::try_read_csv(ss, fs);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().message();
  const data::Dataset restored = std::move(restored_or).value();

  ASSERT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.landmark_available, original.landmark_available);
  for (std::size_t i = 0; i < original.size(); ++i) {
    const data::Sample& a = original.samples[i];
    const data::Sample& b = restored.samples[i];
    EXPECT_EQ(a.features, b.features);
    EXPECT_EQ(a.client_region, b.client_region);
    EXPECT_EQ(a.service, b.service);
    EXPECT_DOUBLE_EQ(a.time_hours, b.time_hours);
    EXPECT_DOUBLE_EQ(a.page_load_ms, b.page_load_ms);
    EXPECT_EQ(a.qoe_degraded, b.qoe_degraded);
    EXPECT_EQ(a.primary_cause, b.primary_cause);
    EXPECT_EQ(a.coarse_label, b.coarse_label);
    EXPECT_EQ(a.true_causes, b.true_causes);
    EXPECT_EQ(a.injected, b.injected);
  }
}

TEST(DatasetCsv, RejectsForeignHeader) {
  const auto& fs = pipeline().feature_space();
  std::stringstream ss("#landmark_available,1,1,1,1,1,1,1,1,1,1\nwrong\n");
  const auto parsed = data::try_read_csv(ss, fs);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Occlusion attention

TEST(OcclusionAttention, ProducesANormalisedDistribution) {
  auto& p = pipeline();
  const auto faulty = p.faulty_test_indices();
  const auto& sample = p.split().test.samples[faulty[0]];
  const nn::LandBatch batch = data::encode_sample(
      sample.features, p.feature_space(), p.diagnet().normalizer(),
      p.split().test.landmark_available);
  const auto result = core::compute_occlusion_attention(
      p.diagnet().general_net(), batch, p.feature_space());
  double sum = 0.0;
  for (double g : result.gamma) {
    EXPECT_GE(g, 0.0);
    sum += g;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(OcclusionAttention, AgreesWithGradientOnCoarsePrediction) {
  auto& p = pipeline();
  const auto faulty = p.faulty_test_indices();
  const auto& sample = p.split().test.samples[faulty[0]];
  const nn::LandBatch batch = data::encode_sample(
      sample.features, p.feature_space(), p.diagnet().normalizer(),
      p.split().test.landmark_available);
  const auto grad = testkit::attention(p.diagnet().general_net(), batch,
                                       p.feature_space()).front();
  const auto occl = core::compute_occlusion_attention(
      p.diagnet().general_net(), batch, p.feature_space());
  EXPECT_EQ(grad.coarse_argmax, occl.coarse_argmax);
  for (std::size_t c = 0; c < grad.coarse_probs.size(); ++c)
    EXPECT_NEAR(grad.coarse_probs[c], occl.coarse_probs[c], 1e-9);
}

TEST(OcclusionAttention, DiagnoseMethodToggleWorks) {
  auto& p = pipeline();
  const auto faulty = p.faulty_test_indices();
  const auto& sample = p.split().test.samples[faulty[0]];
  const std::vector<bool> all(p.feature_space().landmark_count(), true);

  const core::DiagnoseRequest request{sample.features, sample.service, false,
                                      all};
  p.diagnet().set_attention_method(core::AttentionMethod::Occlusion);
  const auto occl = p.diagnet().diagnose(request).diagnosis;
  p.diagnet().set_attention_method(core::AttentionMethod::Gradient);
  const auto grad = p.diagnet().diagnose(request).diagnosis;

  double diff = 0.0;
  for (std::size_t j = 0; j < grad.attention.size(); ++j)
    diff += std::abs(grad.attention[j] - occl.attention[j]);
  EXPECT_GT(diff, 1e-9);  // distinct mechanisms, distinct scores
}

}  // namespace
}  // namespace diagnet
