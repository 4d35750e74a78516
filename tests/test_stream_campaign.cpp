// Determinism and integrity tests for the streaming campaign data path:
// the classic in-RAM generator and the streaming sink must agree exactly,
// chunked campaigns must round-trip sample-exact, the shard bytes must be
// bit-identical for every thread count and chunk size (the property the
// whole fork-per-sample design exists for), and corrupt or torn campaigns
// must be refused with a precise Status.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/diagnet.h"
#include "data/campaign_stream.h"
#include "data/generator.h"
#include "netsim/event_engine.h"
#include "netsim/simulator.h"
#include "util/status.h"

namespace diagnet {
namespace {

namespace fs_std = std::filesystem;

/// One calibrated simulator + feature space shared by every test.
struct World {
  netsim::Simulator sim;
  data::FeatureSpace fs;
  World() : sim(netsim::Simulator::make_default(4242)), fs(sim.topology()) {
    sim.calibrate_qoe();
  }
};

World& world() {
  static World w;
  return w;
}

/// Small classic-mode config (scenario-indexed, no event engine).
data::CampaignConfig classic_config() {
  data::CampaignConfig config;
  config.nominal_samples = 30;
  config.fault_samples = 60;
  config.seed = 99;
  return config;
}

/// Small client-mode config (event engine + flow model).
data::CampaignConfig client_config() {
  data::CampaignConfig config;
  config.clients = 400;
  config.duration_hours = 24.0;
  config.seed = 99;
  return config;
}

/// A fresh scratch directory under the system temp dir.
std::string scratch_dir(const std::string& tag) {
  const fs_std::path dir =
      fs_std::temp_directory_path() / ("diagnet_test_stream_" + tag);
  fs_std::remove_all(dir);
  return dir.string();
}

std::string file_bytes(const fs_std::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void expect_samples_equal(const data::Sample& a, const data::Sample& b) {
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.client_region, b.client_region);
  EXPECT_EQ(a.service, b.service);
  EXPECT_EQ(a.time_hours, b.time_hours);
  EXPECT_EQ(a.page_load_ms, b.page_load_ms);
  EXPECT_EQ(a.qoe_degraded, b.qoe_degraded);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.true_causes, b.true_causes);
  EXPECT_EQ(a.primary_cause, b.primary_cause);
  EXPECT_EQ(a.coarse_label, b.coarse_label);
}

void expect_datasets_equal(const data::Dataset& a, const data::Dataset& b) {
  EXPECT_EQ(a.landmark_available, b.landmark_available);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    expect_samples_equal(a.samples[i], b.samples[i]);
  }
}

/// Streams `config` into a chunked directory and returns the directory.
std::string write_chunked(const data::CampaignConfig& config,
                          const std::string& tag,
                          data::ChunkedWriterConfig writer_config = {}) {
  const std::string dir = scratch_dir(tag);
  data::ChunkedWriter sink(dir, writer_config);
  const auto stats =
      data::stream_campaign(world().sim, world().fs, config, sink);
  EXPECT_TRUE(stats.ok()) << stats.status().message();
  return dir;
}

TEST(StreamCampaign, ClassicStreamMatchesGenerateCampaign) {
  const data::CampaignConfig config = classic_config();
  const data::Dataset reference =
      data::generate_campaign(world().sim, world().fs, config);

  data::DatasetSink sink;
  const auto stats =
      data::stream_campaign(world().sim, world().fs, config, sink);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->samples, reference.size());

  expect_datasets_equal(sink.dataset(), reference);
}

TEST(StreamCampaign, ChunkedRoundTripIsSampleExact) {
  const data::CampaignConfig config = classic_config();
  data::DatasetSink ram;
  ASSERT_TRUE(
      data::stream_campaign(world().sim, world().fs, config, ram).ok());

  data::ChunkedWriterConfig writer_config;
  writer_config.chunk_size = 7;  // force several partial chunks
  const std::string dir = write_chunked(config, "roundtrip", writer_config);

  const auto restored = data::try_read_chunked(dir, world().fs);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  expect_datasets_equal(*restored, ram.dataset());

  // The sequential reader agrees sample for sample, then reports EOF.
  auto reader = data::ChunkedReader::open(dir, world().fs);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_EQ(reader->size(), ram.dataset().size());
  for (std::size_t i = 0; i < ram.dataset().size(); ++i) {
    data::Sample sample;
    bool eof = false;
    ASSERT_TRUE(reader->next(&sample, &eof).ok());
    ASSERT_FALSE(eof) << "premature EOF at sample " << i;
    SCOPED_TRACE("sample " + std::to_string(i));
    expect_samples_equal(sample, ram.dataset().samples[i]);
  }
  data::Sample sample;
  bool eof = false;
  ASSERT_TRUE(reader->next(&sample, &eof).ok());
  EXPECT_TRUE(eof);
  fs_std::remove_all(dir);
}

TEST(StreamCampaign, ShardBytesInvariantAcrossThreadsAndChunkSizes) {
  // The acceptance property of the whole PR: for a fixed (seed, config) the
  // streamed shard bytes are identical for ANY worker thread count and ANY
  // chunk size. Chunks are bookkeeping in the index; shards are a pure
  // function of the sample sequence.
  data::CampaignConfig config = client_config();

  struct Variant {
    std::size_t threads;
    std::size_t chunk_size;
  };
  const Variant variants[] = {{1, 1}, {4, 64}, {4, 4096}, {1, 4096}};

  std::vector<std::string> dirs;
  for (std::size_t v = 0; v < std::size(variants); ++v) {
    config.threads = variants[v].threads;
    data::ChunkedWriterConfig writer_config;
    writer_config.chunk_size = variants[v].chunk_size;
    dirs.push_back(write_chunked(config, "variant" + std::to_string(v),
                                 writer_config));
  }

  const std::string reference = file_bytes(
      fs_std::path(dirs[0]) / "shard-00000.bin");
  ASSERT_FALSE(reference.empty());
  for (std::size_t v = 1; v < dirs.size(); ++v) {
    SCOPED_TRACE("threads=" + std::to_string(variants[v].threads) +
                 " chunk_size=" + std::to_string(variants[v].chunk_size));
    EXPECT_EQ(file_bytes(fs_std::path(dirs[v]) / "shard-00000.bin"),
              reference);
  }

  // And the decoded campaigns are equal too (the index differs only in its
  // chunk table granularity).
  const auto a = data::try_read_chunked(dirs[0], world().fs);
  const auto b = data::try_read_chunked(dirs[1], world().fs);
  ASSERT_TRUE(a.ok() && b.ok());
  expect_datasets_equal(*a, *b);
  for (const std::string& dir : dirs) fs_std::remove_all(dir);
}

TEST(StreamCampaign, CorruptChunkIsRefusedWithDataLoss) {
  const std::string dir = write_chunked(classic_config(), "corrupt");
  const fs_std::path shard = fs_std::path(dir) / "shard-00000.bin";
  std::string bytes = file_bytes(shard);
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  {
    std::ofstream os(shard, std::ios::binary | std::ios::trunc);
    os << bytes;
  }
  const auto restored = data::try_read_chunked(dir, world().fs);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(restored.status().message().find("checksum"), std::string::npos)
      << restored.status().message();
  fs_std::remove_all(dir);
}

TEST(StreamCampaign, MissingIndexIsNotFound) {
  // A writer that crashed before finish() leaves shards but no
  // campaign.idx; the reader must refuse the torn campaign as not_found.
  const std::string dir = write_chunked(classic_config(), "noindex");
  fs_std::remove(fs_std::path(dir) / "campaign.idx");
  const auto restored = data::try_read_chunked(dir, world().fs);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), util::StatusCode::kNotFound);
  fs_std::remove_all(dir);
}

TEST(StreamCampaign, ValidateRejectsBadConfigs) {
  const auto code = [](const data::CampaignConfig& config) {
    return config.validate(world().sim).code();
  };

  data::CampaignConfig config = classic_config();
  EXPECT_TRUE(config.validate(world().sim).ok());

  config = classic_config();
  config.nominal_samples = 0;
  config.fault_samples = 0;
  EXPECT_EQ(code(config), util::StatusCode::kInvalidArgument);

  config = classic_config();
  config.services = {world().sim.services().size() + 3};
  EXPECT_EQ(code(config), util::StatusCode::kInvalidArgument);

  config = classic_config();
  config.fault_regions = {world().sim.topology().region_count() + 1};
  EXPECT_EQ(code(config), util::StatusCode::kInvalidArgument);

  config = classic_config();
  config.multi_fault_prob = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(code(config), util::StatusCode::kInvalidArgument);

  config = classic_config();
  config.client_in_fault_region_prob = 1.5;
  EXPECT_EQ(code(config), util::StatusCode::kInvalidArgument);

  config = client_config();
  config.mean_think_s = 0.0;
  EXPECT_EQ(code(config), util::StatusCode::kInvalidArgument);

  // An uncalibrated simulator is a precondition failure, not an argument
  // error — the config itself may be fine.
  netsim::Simulator uncalibrated = netsim::Simulator::make_default(7);
  EXPECT_EQ(classic_config().validate(uncalibrated).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(StreamCampaign, ImbalancedClientCampaignTrainsFinite) {
  // Client-mode campaigns are naturally >99% nominal — unlike the classic
  // scenario-indexed mode's forced 1/3-2/3 split. That imbalance once
  // drove the coarse net into a momentum-fed exponential logit blow-up
  // (loss -> NaN within the first epoch, diagnose died on NaN
  // probabilities); TrainerConfig::clip_norm now bounds each step. This
  // pins the whole client-mode pipeline: stream, train, diagnose, all
  // finite.
  // This exact (simulator seed, campaign seed, clients) triple diverged
  // before clipping: loss was NaN from step ~74 of the first epoch.
  netsim::Simulator sim = netsim::Simulator::make_default(7);
  sim.calibrate_qoe();
  const data::FeatureSpace fs(sim.topology());
  data::CampaignConfig config;
  config.clients = 20000;
  config.duration_hours = 24.0;
  config.seed = 7 ^ 0xca3fULL;
  data::DatasetSink sink;
  ASSERT_TRUE(data::stream_campaign(sim, fs, config, sink).ok());
  const data::Dataset& campaign = sink.dataset();

  std::size_t faulty = 0;
  for (const data::Sample& sample : campaign.samples)
    faulty += sample.is_faulty() ? 1 : 0;
  ASSERT_GT(faulty, 0u);
  ASSERT_LT(faulty * 10, campaign.size());  // genuinely imbalanced

  core::DiagNetConfig model_config = core::DiagNetConfig::defaults();
  model_config.trainer.max_epochs = 1;
  core::DiagNetModel model(fs, model_config);
  const nn::TrainingHistory history = model.train_general(campaign);
  for (const nn::EpochStats& epoch : history.epochs) {
    EXPECT_TRUE(std::isfinite(epoch.train_loss)) << epoch.train_loss;
    EXPECT_TRUE(std::isfinite(epoch.validation_loss))
        << epoch.validation_loss;
  }

  for (const data::Sample& sample : campaign.samples) {
    if (!sample.is_faulty()) continue;
    const core::DiagnoseResponse response = model.diagnose(
        {sample.features, sample.service, /*use_general=*/true,
         campaign.landmark_available});
    ASSERT_TRUE(response.ok()) << response.status.message();
    ASSERT_FALSE(response.diagnosis.scores.empty());
    for (double score : response.diagnosis.scores)
      EXPECT_TRUE(std::isfinite(score)) << score;
  }
}

TEST(EventEngine, CanonicalOrderIsShardInvariant) {
  netsim::EventEngineConfig config;
  config.clients = 300;
  config.duration_hours = 24.0;
  config.mean_think_s = 3600.0 * 6;  // ~4 visits/client/day
  config.seed = 31337;

  const auto drain = [&](std::size_t shards) {
    netsim::EventEngineConfig c = config;
    c.shards = shards;
    netsim::EventEngine engine(c);
    std::vector<netsim::Event> all, window;
    while (engine.next_window(&window))
      all.insert(all.end(), window.begin(), window.end());
    return all;
  };

  const std::vector<netsim::Event> one = drain(1);
  const std::vector<netsim::Event> eight = drain(8);

  ASSERT_EQ(one.size(), eight.size());
  ASSERT_GT(one.size(), config.clients);  // multiple cycles per client
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].time_hours, eight[i].time_hours);
    EXPECT_EQ(one[i].client, eight[i].client);
    EXPECT_EQ(one[i].cycle, eight[i].cycle);
  }

  // Canonical order: time strictly within the window, non-decreasing.
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_GE(one[i].time_hours, 0.0);
    EXPECT_LT(one[i].time_hours, config.duration_hours);
    if (i > 0) {
      EXPECT_GE(one[i].time_hours, one[i - 1].time_hours);
    }
  }
}

}  // namespace
}  // namespace diagnet
