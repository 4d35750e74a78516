// Tests for binary IO, forest/normalizer serialisation, the model
// registry, dataset CSV round-trips, and the occlusion attention variant.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/split.h"
#include "eval/pipeline.h"
#include "testkit/forest_oracle.h"
#include "testkit/fuzz.h"
#include "testkit/nets.h"
#include "util/binary_io.h"
#include "util/rng.h"

#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define DIAGNET_TEST_MALLINFO2 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define DIAGNET_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DIAGNET_TEST_ASAN 1
#endif
#endif

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

#if defined(DIAGNET_TEST_MALLINFO2) && !defined(DIAGNET_TEST_ASAN)

/// Bytes the allocator has handed out and not taken back: arena chunks in
/// use plus mmapped chunks, summed over every arena.
std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

TEST(ModelRegistry, LoadedBundleHoldsWeightsAndForestOnly) {
  // A loaded bundle is a served model: it should cost its fp32 weights and
  // its forest, not a gradient buffer per parameter, a second copy of the
  // payload, or a copy of the general's frozen representation per head —
  // the representation counts once, each head only its trainable tail. The
  // forest's share is measured the same way, by loading it alone.
  auto& p = pipeline();
  core::DiagNetModel& model = p.diagnet();
  const std::size_t parameters =
      model.general_net().parameter_count() +
      model.specialized_services().size() *
          model.general_net().head()->parameter_count();
  const std::size_t parameter_bytes = parameters * sizeof(float);

  std::stringstream forest_stream;
  util::BinaryWriter forest_writer(forest_stream);
  model.auxiliary().save(forest_writer);
  util::BinaryReader forest_reader(forest_stream);
  const std::size_t before_forest = heap_in_use();
  forest::ExtensibleForest forest;
  forest.load(forest_reader);
  const std::size_t forest_bytes = heap_in_use() - before_forest;

  std::stringstream bundle;
  ASSERT_TRUE(core::try_save_model(model, bundle).ok());
  const std::size_t before = heap_in_use();
  auto loaded = core::try_load_model(bundle, p.feature_space());
  const std::size_t growth = heap_in_use() - before;
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  EXPECT_LT(static_cast<double>(growth),
            1.25 * static_cast<double>(parameter_bytes + forest_bytes))
      << "parameters " << parameter_bytes << " B, forest " << forest_bytes
      << " B, load grew the heap by " << growth << " B";
}

#endif

// ---------------------------------------------------------------------------
// Bundle compatibility: parameters are fp32 in memory and fp64 on disk.

/// `v` moved off the float grid: the next double up, which no float holds
/// (a float has 29 fewer mantissa bits) unless v is zero.
double off_grid(double v) {
  return std::nextafter(v, std::numeric_limits<double>::infinity());
}

TEST(BundleCompat, LoadParametersRoundsEachDoubleToNearestFloat) {
  util::Rng rng(3);
  nn::CoarseNetConfig config;
  config.features_per_landmark = 3;
  config.local_features = 2;
  config.filters = 4;
  config.hidden = {8, 6};
  config.classes = 4;
  nn::CoarseNet net(config, rng);
  // Fresh normal draws: full 53-bit doubles, off the float grid.
  std::vector<double> flat = net.save_parameters();
  for (double& v : flat) v = rng.normal();
  net.load_parameters(flat);
  const std::vector<double> loaded = net.save_parameters();
  ASSERT_EQ(loaded.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i)
    ASSERT_EQ(loaded[i], static_cast<double>(static_cast<float>(flat[i])))
        << "parameter " << i;

  // A finite value no float can hold is refused, not narrowed.
  flat[0] = 1e300;
  EXPECT_THROW(net.load_parameters(flat), std::logic_error);
}

TEST(BundleCompat, SaveLoadSaveIsByteIdentical) {
  auto& p = pipeline();
  std::stringstream first;
  ASSERT_TRUE(core::try_save_model(p.diagnet(), first).ok());
  auto restored = core::try_load_model(first, p.feature_space());
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  std::stringstream second;
  ASSERT_TRUE(core::try_save_model(**restored, second).ok());
  EXPECT_EQ(first.str(), second.str());
}

/// Writes `model` in DiagNetModel's on-disk payload layout (tag
/// 0xd1a60e7'0002), but with every network parameter passed through
/// `param` first — how a bundle written while the network computed in
/// fp64 carries weights no float holds. `forest`, when set, writes the
/// auxiliary forest in place of the model's own.
void write_payload(
    core::DiagNetModel& model, const std::function<double(double)>& param,
    util::BinaryWriter& writer,
    const std::function<void(util::BinaryWriter&)>& forest = nullptr) {
  const data::FeatureSpace& fs = model.feature_space();
  const nn::CoarseNetConfig& coarse = model.config().coarse;
  writer.write_u64(0xd1a60e7'0002ULL);
  writer.write_u64(fs.landmark_count());
  writer.write_u64(fs.total());
  writer.write_u64(coarse.features_per_landmark);
  writer.write_u64(coarse.local_features);
  writer.write_u64(coarse.filters);
  std::vector<std::size_t> ops;
  for (const nn::PoolOp op : coarse.pool_ops)
    ops.push_back(static_cast<std::size_t>(op));
  writer.write_indices(ops);
  writer.write_indices(coarse.hidden);
  writer.write_u64(coarse.classes);
  writer.write_bool(model.config().use_score_weighting);
  writer.write_bool(model.config().use_ensemble);
  const auto params = [&](const nn::CoarseNet& net) {
    std::vector<double> flat = net.save_parameters();
    for (double& v : flat) v = param(v);
    return flat;
  };
  writer.write_doubles(params(model.general_net()));
  const std::vector<std::size_t> services = model.specialized_services();
  writer.write_u64(services.size());
  for (const std::size_t service : services) {
    writer.write_u64(service);
    writer.write_doubles(params(model.service_net(service)));
  }
  model.normalizer().save(writer);
  if (forest)
    forest(writer);
  else
    model.auxiliary().save(writer);
  writer.write_indices(model.unknown_features());
}

/// try_load_model over `payload`, framed with the registry header and a
/// valid payload checksum.
util::Status load_framed(const std::string& payload) {
  std::stringstream file;
  util::BinaryWriter writer(file);
  writer.write_u64(0x44474e4554'4d4f44ULL);  // "DGNET MOD"
  writer.write_u64(2);
  writer.write_u64(util::fnv1a64(payload.data(), payload.size()));
  writer.write_string(payload);
  return core::try_load_model(file, pipeline().feature_space()).status();
}

TEST(BundleCompat, Fp64ParameterBundleLoadsAndServes) {
  auto& p = pipeline();
  // The current writer's payload, byte for byte, pins the layout above.
  std::stringstream current, reference;
  util::BinaryWriter current_writer(current), reference_writer(reference);
  p.diagnet().save(current_writer);
  write_payload(p.diagnet(), [](double v) { return v; }, reference_writer);
  ASSERT_EQ(current.str(), reference.str());

  std::stringstream fp64;
  util::BinaryWriter writer(fp64);
  write_payload(p.diagnet(), off_grid, writer);
  util::BinaryReader reader(fp64);
  const std::unique_ptr<core::DiagNetModel> loaded =
      core::DiagNetModel::load(reader, p.feature_space());
  ASSERT_TRUE(loaded && loaded->trained());

  // Every weight is the nearest float to its fp64 value...
  std::vector<double> want = p.diagnet().general_net().save_parameters();
  for (double& v : want) v = static_cast<float>(off_grid(v));
  EXPECT_EQ(loaded->general_net().save_parameters(), want);

  // ...and the bundle serves.
  const auto faulty = p.faulty_test_indices();
  ASSERT_FALSE(faulty.empty());
  const auto& sample = p.split().test.samples[faulty[0]];
  const core::DiagnoseResponse response = loaded->diagnose(
      {sample.features, sample.service, false,
       p.split().test.landmark_available});
  ASSERT_TRUE(response.ok()) << response.status.message();
  EXPECT_EQ(response.diagnosis.scores.size(), p.feature_space().total());
}

// ---------------------------------------------------------------------------
// Specialized heads run on the general's one frozen representation.

TEST(SpecializedHeads, ShareTheGeneralsPoolingObject) {
  auto& p = pipeline();
  core::DiagNetModel& model = p.diagnet();
  ASSERT_FALSE(model.specialized_services().empty());
  for (const std::size_t service : model.specialized_services())
    EXPECT_EQ(&model.service_net(service).pooling(),
              &model.general_net().pooling())
        << "freshly specialised head " << service;

  std::stringstream bundle;
  ASSERT_TRUE(core::try_save_model(model, bundle).ok());
  auto loaded = core::try_load_model(bundle, p.feature_space());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ((*loaded)->specialized_services(), model.specialized_services());
  for (const std::size_t service : (*loaded)->specialized_services())
    EXPECT_EQ(&(*loaded)->service_net(service).pooling(),
              &(*loaded)->general_net().pooling())
        << "loaded head " << service;
}

TEST(SpecializedHeads, LoadRefusesAHeadWhoseFirstHiddenLayerDiffers) {
  // Perturb one weight inside the first head's FC1 block: its pooling still
  // matches the general's, its first hidden layer does not.
  auto& p = pipeline();
  core::DiagNetModel& model = p.diagnet();
  ASSERT_FALSE(model.specialized_services().empty());
  const auto params = model.general_net().parameters();
  const std::size_t fc1 = params[0]->value.size() + params[1]->value.size();
  const std::size_t target = model.general_net().parameter_count() + fc1 + 3;
  std::size_t index = 0;
  std::stringstream payload;
  util::BinaryWriter writer(payload);
  write_payload(
      model, [&](double v) { return index++ == target ? v + 1.0 : v; },
      writer);
  ASSERT_GT(index, target);

  const util::Status status = load_framed(payload.str());
  EXPECT_EQ(status.code(), util::StatusCode::kDataLoss) << status.message();
  EXPECT_NE(status.message().find("frozen representation"), std::string::npos)
      << status.message();
}

TEST(SpecializedHeads, AdoptRefusesADonorWhoseFirstHiddenLayerDiffers) {
  auto& p = pipeline();
  const std::size_t service = p.diagnet().specialized_services().front();
  std::stringstream bundle;
  ASSERT_TRUE(core::try_save_model(p.diagnet(), bundle).ok());
  const std::string bytes = bundle.str();
  const auto load = [&] {
    std::istringstream is(bytes);
    auto model = core::try_load_model(is, p.feature_space());
    EXPECT_TRUE(model.ok()) << model.status().message();
    return std::move(model).value();
  };

  auto base = load();
  auto donor = load();
  ASSERT_TRUE(base->adopt_specialized(service, *donor).ok());
  EXPECT_EQ(&base->service_net(service).pooling(),
            &base->general_net().pooling());

  // Same pooling kernel, another FC1: refused, and the donor keeps its head.
  auto altered = load();
  altered->general_net().parameters()[2]->value(0, 0) += 1.0f;
  const util::Status status = base->adopt_specialized(service, *altered);
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition)
      << status.message();
  EXPECT_TRUE(altered->has_specialized(service));
}

// ---------------------------------------------------------------------------
// Forest bundle validation: a forged auxiliary forest inside a bundle whose
// checksum is valid must still be refused as data_loss, before a walk can
// loop or a score can land out of bounds.

struct ForgedNode {
  std::int64_t feature = -1;
  double threshold = 0.0;
  std::int64_t left = -1;
  std::int64_t right = -1;
  std::vector<double> proba;
};

/// An ExtensibleForest stream field by field; the defaults form a valid
/// one-tree forest (a root split on feature 0 and two leaves) over the
/// pipeline's 55 features with one trained cause.
struct ForgedForest {
  std::uint64_t total_causes = 55;
  std::vector<std::size_t> causes = {4};
  std::uint64_t classes = 2;
  std::uint64_t tree_classes = 2;
  std::vector<ForgedNode> nodes = {{0, 0.5, 1, 2, {}},
                                   {-1, 0.0, -1, -1, {0.75, 0.25}},
                                   {-1, 0.0, -1, -1, {0.0, 1.0}}};

  void write(util::BinaryWriter& writer) const {
    const auto i64 = [&](std::int64_t v) {
      writer.write_u64(static_cast<std::uint64_t>(v));
    };
    writer.write_u64(0xe47e4500ULL);
    writer.write_u64(total_causes);
    writer.write_indices(causes);
    writer.write_u64(0xf03e5700ULL);
    writer.write_u64(classes);
    writer.write_u64(1);
    writer.write_u64(0xd7ee0001ULL);
    writer.write_u64(tree_classes);
    writer.write_u64(nodes.size());
    for (const ForgedNode& node : nodes) {
      i64(node.feature);
      writer.write_double(node.threshold);
      i64(node.left);
      i64(node.right);
      writer.write_doubles(node.proba);
    }
  }
};

/// try_load_model over the pipeline's bundle carrying `forest`, framed
/// with the registry header and a valid payload checksum.
util::Status load_with_forest(const ForgedForest& forest) {
  auto& p = pipeline();
  std::stringstream payload;
  util::BinaryWriter payload_writer(payload);
  write_payload(
      p.diagnet(), [](double v) { return v; }, payload_writer,
      [&](util::BinaryWriter& writer) { forest.write(writer); });
  return load_framed(payload.str());
}

void expect_refused(const ForgedForest& forest, const std::string& what) {
  const util::Status status = load_with_forest(forest);
  EXPECT_EQ(status.code(), util::StatusCode::kDataLoss) << status.message();
  EXPECT_NE(status.message().find(what), std::string::npos)
      << status.message();
}

TEST(ForestBundle, ForgedValidForestLoads) {
  const util::Status status = load_with_forest(ForgedForest{});
  EXPECT_TRUE(status.ok()) << status.message();
}

TEST(ForestBundle, RightChildAtTheRootIsRefused) {
  ForgedForest forest;
  forest.nodes[0].right = 0;  // a walk would loop forever
  expect_refused(forest, "right child out of range");
}

TEST(ForestBundle, ChildBeyondTheTreeIsRefused) {
  ForgedForest forest;
  forest.nodes[0].right = 3;
  expect_refused(forest, "right child out of range");
}

TEST(ForestBundle, LeftChildOutOfPreorderIsRefused) {
  ForgedForest forest;
  forest.nodes[0].left = 2;
  expect_refused(forest, "left child is not self + 1");
}

TEST(ForestBundle, LeafOfTheWrongLengthIsRefused) {
  ForgedForest forest;
  forest.nodes[2].proba = {0.0, 0.5, 0.5};
  expect_refused(forest, "leaf distribution of the wrong length");
}

TEST(ForestBundle, NonFiniteLeafIsRefused) {
  ForgedForest forest;
  forest.nodes[1].proba[0] = std::numeric_limits<double>::quiet_NaN();
  expect_refused(forest, "non-finite leaf value");
}

TEST(ForestBundle, TreeClassCountMismatchIsRefused) {
  ForgedForest forest;
  forest.tree_classes = 3;
  for (ForgedNode& node : forest.nodes)
    if (node.feature < 0) node.proba.push_back(0.0);
  expect_refused(forest, "tree class count differs");
}

TEST(ForestBundle, CauseMapOutOfOrderIsRefused) {
  ForgedForest forest;
  forest.causes = {9, 4};
  forest.classes = forest.tree_classes = 3;
  for (ForgedNode& node : forest.nodes)
    if (node.feature < 0) node.proba.push_back(0.0);
  expect_refused(forest, "cause map is not ascending");
}

TEST(ForestBundle, CauseBeyondTheCauseSpaceIsRefused) {
  ForgedForest forest;
  forest.causes = {55};  // score_causes would write scores[55] of 55
  expect_refused(forest, "cause map is not ascending below 55");
}

TEST(ForestBundle, CauseMapOfTheWrongSizeIsRefused) {
  ForgedForest forest;
  forest.causes = {4, 9};  // three classes' worth, for a two-class forest
  expect_refused(forest, "cause map does not match the class count");
}

TEST(ForestBundle, SplitFeatureBeyondTheFeatureSpaceIsRefused) {
  ForgedForest forest;
  forest.nodes[0].feature = 55;  // a walk would read sample[55] of 55
  expect_refused(forest, "auxiliary forest does not fit the feature space");
}

/// The chunk scores of `forged` over the rows of x (55 values each),
/// after checking that they are bit-equal to the reference walk's.
std::vector<double> scores_like_the_reference_walk(const ForgedForest& forged,
                                                   const std::vector<double>& x) {
  std::stringstream stream;
  util::BinaryWriter writer(stream);
  forged.write(writer);
  const std::string bytes = stream.str();
  std::istringstream is(bytes, std::ios::binary);
  util::BinaryReader reader(is);
  forest::ExtensibleForest model;
  model.load(reader);

  const std::size_t width = 55;
  const std::size_t rows = x.size() / width;
  std::vector<double> got(rows * model.total_causes());
  model.score_rows(x.data(), rows, width, got.data());
  const std::vector<double> want =
      testkit::oracle::reference_forest_scores(bytes, x.data(), rows, width);
  EXPECT_EQ(want.size(), got.size());
  if (want.size() == got.size()) {
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
  }
  return got;
}

TEST(ForestBundle, TreeDeeperThanMaxDepthScoresLikeTheReferenceWalk) {
  // load() checks preorder only, so a loaded tree can be deeper than the
  // max_depth a fit stops at: here a 40-node left chain on feature 0
  // (thresholds 40, 39, ..., 1) whose right children are leaves.
  constexpr std::int64_t kChain = 40;
  ForgedForest forged;
  forged.nodes.clear();
  for (std::int64_t i = 0; i < kChain; ++i)
    forged.nodes.push_back(
        {0, static_cast<double>(kChain - i), i + 1, 2 * kChain - i, {}});
  // The chain's last left child, then the right children bottom-up.
  for (std::int64_t i = 0; i <= kChain; ++i) {
    const double p = static_cast<double>(i) / static_cast<double>(kChain);
    forged.nodes.push_back({-1, 0.0, -1, -1, {p, 1.0 - p}});
  }
  ASSERT_TRUE(load_with_forest(forged).ok());

  // Rows that leave the chain at every depth, on every tie and between.
  std::vector<double> x;
  for (std::int64_t v = -2; v <= 2 * (kChain + 1); ++v) {
    std::vector<double> row(55, 0.0);
    row[0] = 0.5 * static_cast<double>(v);
    x.insert(x.end(), row.begin(), row.end());
  }
  const std::vector<double> got = scores_like_the_reference_walk(forged, x);
  // Row 0 (x0 = -1) reaches the deepest leaf, p = 0; row 4 (x0 = 1, the
  // last threshold) ties and goes right, to p = 1/40. Cause 4 is class 0.
  ASSERT_EQ(got.size(), x.size());
  EXPECT_DOUBLE_EQ(got[4], 1.0 / 55.0);
  EXPECT_DOUBLE_EQ(got[4 * 55 + 4], (1.0 - 0.025) / 55.0 + 0.025);
}

TEST(ForestBundle, LadderOfSharedNodesLoadsInLinearTime) {
  // Preorder allows a node two parents: internal node i goes to i + 1 or
  // i + 2, so the number of root-to-leaf paths grows like Fibonacci(90)
  // while the longest path is 89 levels. Loading must not follow every
  // path, and the walk must still reach the reference walk's leaves.
  constexpr std::int64_t kNodes = 90;
  ForgedForest forged;
  forged.nodes.clear();
  for (std::int64_t i = 0; i + 2 < kNodes; ++i)
    forged.nodes.push_back({i % 2, 0.5, i + 1, i + 2, {}});
  forged.nodes.push_back({-1, 0.0, -1, -1, {0.25, 0.75}});
  forged.nodes.push_back({-1, 0.0, -1, -1, {1.0, 0.0}});
  ASSERT_TRUE(load_with_forest(forged).ok());

  // x0, x1 in {0, 1}: always left (the deepest path), always right, and
  // the two alternations.
  std::vector<double> x;
  for (int bits = 0; bits < 4; ++bits) {
    std::vector<double> row(55, 0.0);
    row[0] = bits & 1;
    row[1] = (bits >> 1) & 1;
    x.insert(x.end(), row.begin(), row.end());
  }
  scores_like_the_reference_walk(forged, x);
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
