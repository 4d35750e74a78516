// Integration tests for the serving subsystem (src/serve): micro-batch
// coalescing under concurrent producers must be BIT-IDENTICAL to the
// sequential DiagNetModel::diagnose path, admission control must reject
// (never block), deadlines must shed before wasting batch slots, stop()
// must drain every accepted request, and a model hot-swap mid-stream must
// never crash or mix models within a response.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/diagnet.h"
#include "core/registry.h"
#include "eval/pipeline.h"
#include "obs/obs.h"
#include "serve/json.h"
#include "serve/loadgen.h"
#include "serve/reactor.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/statsz.h"
#include "serve/wire.h"
#include "util/status.h"

namespace diagnet {
namespace {

/// Shared trained pipeline (built once for the whole binary), same reduced
/// configuration the batch-diagnoser parity suite uses.
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

/// Non-owning shared_ptr to the pipeline-owned model (aliasing ctor).
std::shared_ptr<core::DiagNetModel> pipeline_model() {
  return {std::shared_ptr<void>{}, &pipeline().diagnet()};
}

core::DiagnoseRequest request_for(std::size_t test_index) {
  auto& p = pipeline();
  const data::Sample& sample = p.split().test.samples[test_index];
  core::DiagnoseRequest request;
  request.features = sample.features;
  request.service = sample.service;
  request.landmark_available = p.split().test.landmark_available;
  return request;
}

void expect_bit_identical(const core::Diagnosis& got,
                          const core::Diagnosis& want) {
  EXPECT_EQ(got.scores, want.scores);
  EXPECT_EQ(got.ranking, want.ranking);
  EXPECT_EQ(got.coarse_probs, want.coarse_probs);
  EXPECT_EQ(got.coarse_argmax, want.coarse_argmax);
  EXPECT_EQ(got.attention, want.attention);
  EXPECT_EQ(got.w_unknown, want.w_unknown);
}

// ---------------------------------------------------------------------------
// Micro-batching: concurrent producers, bit-exact responses

TEST(DiagnosisService, ConcurrentProducersBitExactVsSequential) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();
  ASSERT_GE(indices.size(), 32u);
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 32;

  // Sequential reference through the unbatched new-API path.
  std::vector<core::Diagnosis> reference(kProducers * kPerProducer);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    core::DiagnoseResponse response =
        p.diagnet().diagnose(request_for(indices[i % indices.size()]));
    ASSERT_TRUE(response.ok()) << response.status.to_string();
    reference[i] = std::move(response.diagnosis);
  }

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::ServiceConfig config;
  config.max_batch = 16;
  // A wide window so the concurrent submissions coalesce deterministically
  // instead of racing the dispatcher one by one.
  config.max_delay_us = 200'000;
  serve::DiagnosisService service(provider, config);

  std::vector<std::future<core::DiagnoseResponse>> futures(reference.size());
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::size_t slot = t * kPerProducer + i;
        futures[slot] =
            service.submit(request_for(indices[slot % indices.size()]));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    core::DiagnoseResponse response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status.to_string();
    expect_bit_identical(response.diagnosis, reference[i]);
  }
  service.stop();

  const auto stats = service.stats();
  EXPECT_EQ(stats.accepted, reference.size());
  EXPECT_EQ(stats.completed, reference.size());
  EXPECT_EQ(stats.rejected, 0u);
  // The point of micro-batching: far fewer batches than requests.
  EXPECT_LT(stats.batches, stats.accepted);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(DiagnosisService, QueueFullRejectsWithoutBlocking) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();
  ASSERT_GE(indices.size(), 8u);

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::ServiceConfig config;
  // The dispatcher parks until 8 requests arrive (or 10 s pass), so the
  // 4-deep queue fills deterministically and the 5th submit is rejected.
  config.max_batch = 8;
  config.max_delay_us = 10'000'000;
  config.queue_capacity = 4;
  serve::DiagnosisService service(provider, config);

  std::vector<std::future<core::DiagnoseResponse>> accepted;
  for (std::size_t i = 0; i < 4; ++i)
    accepted.push_back(service.submit(request_for(indices[i])));

  for (std::size_t i = 0; i < 3; ++i) {
    auto rejected = service.submit(request_for(indices[4 + i]));
    const core::DiagnoseResponse response = rejected.get();  // immediate
    EXPECT_FALSE(response.ok());
    EXPECT_EQ(response.status.code(), util::StatusCode::kResourceExhausted);
    EXPECT_NE(response.status.message().find("queue full"),
              std::string::npos);
  }

  service.stop();  // drains the 4 accepted requests
  for (auto& future : accepted) {
    const core::DiagnoseResponse response = future.get();
    EXPECT_TRUE(response.ok()) << response.status.to_string();
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(DiagnosisService, DeadlineShedsBeforeDispatch) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::ServiceConfig config;
  config.max_batch = 8;
  config.max_delay_us = 10'000'000;  // park until stop()
  serve::DiagnosisService service(provider, config);

  std::vector<std::future<core::DiagnoseResponse>> futures;
  for (std::size_t i = 0; i < 3; ++i)
    futures.push_back(service.submit(request_for(indices[i]),
                                     /*deadline_ms=*/1.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.stop();  // batch forms now; every deadline has long passed

  for (auto& future : futures) {
    const core::DiagnoseResponse response = future.get();
    EXPECT_FALSE(response.ok());
    EXPECT_EQ(response.status.code(), util::StatusCode::kDeadlineExceeded);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(DiagnosisService, AbsurdDeadlineIsClampedNotUndefined) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::DiagnosisService service(provider, serve::ServiceConfig{});

  // deadline_ms is client-controlled and only lower-bounded at the wire
  // layer; a huge-but-finite value must behave as "no effective deadline"
  // (clamped), not overflow the microsecond cast. NaN means no deadline.
  auto huge = service.submit(request_for(indices[0]),
                             /*deadline_ms=*/1e300);
  auto nan = service.submit(request_for(indices[1]),
                            /*deadline_ms=*/std::nan(""));
  service.stop();
  EXPECT_TRUE(huge.get().ok());
  EXPECT_TRUE(nan.get().ok());
  EXPECT_EQ(service.stats().shed, 0u);
}

TEST(DiagnosisService, StopDrainsAcceptedAndRefusesNew) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::ServiceConfig config;
  config.max_batch = 64;
  config.max_delay_us = 10'000'000;  // only stop() releases the batch
  serve::DiagnosisService service(provider, config);

  std::vector<std::future<core::DiagnoseResponse>> futures;
  for (std::size_t i = 0; i < 6; ++i)
    futures.push_back(service.submit(request_for(indices[i])));
  service.stop();

  for (auto& future : futures) {
    const core::DiagnoseResponse response = future.get();
    EXPECT_TRUE(response.ok()) << response.status.to_string();
  }
  EXPECT_EQ(service.stats().completed, 6u);

  // Post-stop submissions resolve immediately with unavailable.
  auto late = service.submit(request_for(indices[0]));
  const core::DiagnoseResponse response = late.get();
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status.code(), util::StatusCode::kUnavailable);

  service.stop();  // idempotent
}

TEST(DiagnosisService, InvalidRequestGetsStatusNotCrash) {
  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::DiagnosisService service(provider);

  core::DiagnoseRequest bad;
  bad.features = {1.0, 2.0, 3.0};  // wrong feature count
  const core::DiagnoseResponse response = service.submit(bad).get();
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status.code(), util::StatusCode::kInvalidArgument);
  service.stop();
}

// ---------------------------------------------------------------------------
// Hot-swap

TEST(ModelProvider, HotSwapMidStreamNeverMixesModels) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();
  const core::DiagnoseRequest request = request_for(indices[0]);

  // Model B: a save/load roundtrip of A with the forest ensemble disabled,
  // so its responses are valid but bit-distinguishable from A's.
  std::stringstream bundle;
  ASSERT_TRUE(core::try_save_model(p.diagnet(), bundle).ok());
  auto loaded = core::try_load_model(bundle, p.feature_space());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  std::shared_ptr<core::DiagNetModel> model_b = std::move(loaded).value();
  model_b->set_ensemble(false);

  core::DiagnoseResponse ref_a = p.diagnet().diagnose(request);
  core::DiagnoseResponse ref_b = model_b->diagnose(request);
  ASSERT_TRUE(ref_a.ok() && ref_b.ok());
  ASSERT_NE(ref_a.diagnosis.scores, ref_b.diagnosis.scores)
      << "models A and B must be distinguishable for this test";

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::ServiceConfig config;
  config.max_batch = 4;
  config.max_delay_us = 100;
  serve::DiagnosisService service(provider, config);

  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&] {
    bool use_b = true;
    while (!stop_swapping.load()) {
      provider->swap(use_b ? model_b : pipeline_model());
      use_b = !use_b;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr std::size_t kRequests = 200;
  std::vector<std::future<core::DiagnoseResponse>> futures;
  futures.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i)
    futures.push_back(service.submit(request));

  std::size_t from_a = 0, from_b = 0;
  for (auto& future : futures) {
    core::DiagnoseResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status.to_string();
    if (response.diagnosis.scores == ref_a.diagnosis.scores) {
      expect_bit_identical(response.diagnosis, ref_a.diagnosis);
      ++from_a;
    } else {
      // Anything not bit-equal to A must be bit-equal to B: a response can
      // only come from exactly one published model, never a mixture.
      expect_bit_identical(response.diagnosis, ref_b.diagnosis);
      ++from_b;
    }
  }
  stop_swapping.store(true);
  swapper.join();
  service.stop();

  EXPECT_EQ(from_a + from_b, kRequests);
  EXPECT_GT(provider->generation(), 1u);
}

TEST(ModelProvider, BadBundleNeverTakesDownServing) {
  auto& p = pipeline();
  const std::string path =
      testing::TempDir() + "/diagnet_serve_reload_model.bin";
  ASSERT_TRUE(core::try_save_model_file(p.diagnet(), path).ok());

  auto provider_or = serve::ModelProvider::from_file(path, p.feature_space());
  ASSERT_TRUE(provider_or.ok()) << provider_or.status().to_string();
  auto provider = std::move(provider_or).value();
  EXPECT_EQ(provider->generation(), 1u);
  // With no heads, the checksum is the bundle's own payload checksum.
  core::ModelBundleInfo info;
  ASSERT_TRUE(
      core::try_load_model_file(path, p.feature_space(), &info).ok());
  EXPECT_EQ(provider->checksum(), info.checksum);

  // Unchanged file: polling is a no-op.
  util::Status status;
  EXPECT_FALSE(provider->poll_and_reload(&status));
  EXPECT_TRUE(status.ok());

  // Corrupt overwrite with a newer mtime: the reload is refused, the old
  // model keeps serving, and the error is reported — not thrown.
  {
    std::ofstream corrupt(path, std::ios::trunc | std::ios::binary);
    corrupt << "not a model bundle";
  }
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now() +
                std::chrono::seconds(2));
  EXPECT_FALSE(provider->poll_and_reload(&status));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(provider->generation(), 1u);
  EXPECT_TRUE(provider->current()
                  ->diagnose(request_for(p.faulty_test_indices()[0]))
                  .ok());

  // The bad mtime is remembered: the broken file is not re-parsed.
  EXPECT_FALSE(provider->poll_and_reload(&status));
  EXPECT_TRUE(status.ok());

  // A newer good bundle swaps in.
  ASSERT_TRUE(core::try_save_model_file(p.diagnet(), path).ok());
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now() +
                std::chrono::seconds(4));
  EXPECT_TRUE(provider->poll_and_reload(&status));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(provider->generation(), 2u);

  // A model swapped in directly came from no bundle: checksum() describes
  // current(), so it no longer names the file's weights.
  provider->swap(pipeline_model());
  EXPECT_EQ(provider->generation(), 3u);
  EXPECT_EQ(provider->checksum(), 0u);
}

// ---------------------------------------------------------------------------
// Wire protocol

TEST(Wire, ParseRejectsMalformedRequests) {
  EXPECT_EQ(serve::parse_request("{").status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::parse_request("42").status().code(),
            util::StatusCode::kInvalidArgument);
  const auto missing = serve::parse_request("{\"service\":1}");
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("features"), std::string::npos);
  const auto bad_top_k =
      serve::parse_request("{\"features\":[1],\"top_k\":0}");
  EXPECT_FALSE(bad_top_k.ok());
  EXPECT_NE(bad_top_k.status().message().find("top_k"), std::string::npos);
}

TEST(Wire, ParseRejectsUnrepresentableNumbers) {
  // Infinity passes floor(x)==x, and anything above 2^64 (or 2^53 for
  // exactness) makes the uint64 cast undefined behaviour — all of these
  // arrive from untrusted network input and must be rejected, not cast.
  EXPECT_FALSE(serve::parse_request("{\"id\":1e300,\"features\":[1]}").ok());
  EXPECT_FALSE(serve::parse_request("{\"id\":1e999,\"features\":[1]}").ok());
  EXPECT_FALSE(
      serve::parse_request("{\"features\":[1],\"service\":1e300}").ok());
  EXPECT_FALSE(
      serve::parse_request("{\"features\":[1],\"top_k\":1e999}").ok());
  EXPECT_FALSE(
      serve::parse_request("{\"features\":[1],\"deadline_ms\":1e999}").ok());
  // Large but exactly-representable values still parse.
  const auto big = serve::parse_request(
      "{\"id\":9007199254740992,\"features\":[1],\"deadline_ms\":1e300}");
  ASSERT_TRUE(big.ok()) << big.status().to_string();
  EXPECT_EQ(big.value().id, 9007199254740992ull);
  EXPECT_EQ(big.value().deadline_ms, 1e300);
}

TEST(Wire, ParseReadsEveryField) {
  const auto parsed = serve::parse_request(
      "{\"id\":7,\"features\":[1.5,-2.0],\"service\":3,\"general\":true,"
      "\"landmarks\":[1,0,true],\"deadline_ms\":50,\"top_k\":2}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().id, 7u);
  EXPECT_EQ(parsed.value().request.features,
            (std::vector<double>{1.5, -2.0}));
  EXPECT_EQ(parsed.value().request.service, 3u);
  EXPECT_TRUE(parsed.value().request.use_general);
  EXPECT_EQ(parsed.value().request.landmark_available,
            (std::vector<bool>{true, false, true}));
  EXPECT_EQ(parsed.value().deadline_ms, 50.0);
  EXPECT_EQ(parsed.value().top_k, 2u);
  // Absent top_k means "session default".
  const auto bare = serve::parse_request("{\"features\":[1]}");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().top_k, 0u);
}

TEST(Wire, FormatErrorCarriesStatusCodeName) {
  const std::string line = serve::format_error(
      9, util::Status::resource_exhausted("queue full"));
  EXPECT_NE(line.find("\"id\":9"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line.find("\"code\":\"resource_exhausted\""), std::string::npos);
  EXPECT_NE(line.find("queue full"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stdio session end-to-end

TEST(Server, StdioSessionAnswersInSubmissionOrder) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();

  auto make_line = [&](std::size_t id, std::size_t test_index) {
    const data::Sample& sample = p.split().test.samples[test_index];
    std::ostringstream line;
    line.precision(17);
    line << "{\"id\":" << id << ",\"service\":" << sample.service
         << ",\"features\":[";
    for (std::size_t f = 0; f < sample.features.size(); ++f) {
      if (f > 0) line << ',';
      line << sample.features[f];
    }
    line << "]}";
    return line.str();
  };

  std::stringstream in;
  in << make_line(1, indices[0]) << '\n';
  in << '\n';  // blank lines are skipped
  in << "this is not json\n";
  in << "{\"id\":3,\"features\":[1,2,3]}\n";  // wrong feature count
  in << make_line(4, indices[1]) << '\n';

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::DiagnosisService service(provider);
  std::stringstream out;
  const serve::SessionStats stats =
      serve::run_session(service, p.feature_space(), in, out, 5);
  service.stop();

  std::vector<std::string> lines;
  for (std::string line; std::getline(out, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.responses, 4u);
  EXPECT_EQ(stats.errors, 2u);

  // In submission order, each line answering its request's id.
  EXPECT_NE(lines[0].find("\"id\":1,\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"causes\":["), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("invalid_argument"), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\":3,\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("\"id\":4,\"ok\":true"), std::string::npos);

  // The ranked causes on the wire match a direct diagnosis bit-for-bit
  // (scores are rendered with %.17g, which round-trips doubles exactly).
  core::DiagnoseResponse reference =
      p.diagnet().diagnose(request_for(indices[0]));
  ASSERT_TRUE(reference.ok());
  const std::string expected = serve::format_response(
      1, reference.diagnosis, p.feature_space(), 5, 0.0);
  const std::string expected_prefix =
      expected.substr(0, expected.find(",\"latency_ms\""));
  EXPECT_EQ(lines[0].substr(0, expected_prefix.size()), expected_prefix);
}

// ---------------------------------------------------------------------------
// Observability: queue depth, reject counters, request ids, statsz

/// Telemetry on for the scope of one test, registry zeroed on both ends
/// so metric assertions cannot see another test's recordings.
struct ScopedObs {
  ScopedObs() {
    obs::Registry::instance().reset_for_test();
    obs::set_enabled(true);
  }
  ~ScopedObs() {
    obs::set_enabled(false);
    obs::Registry::instance().reset_for_test();
  }
};

TEST(DiagnosisService, QueueDepthTracksStallAndDrain) {
  ScopedObs scoped_obs;
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();
  ASSERT_GE(indices.size(), 5u);

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::ServiceConfig config;
  // The dispatcher parks until 8 requests arrive (or 10 s pass), so the
  // 5 submissions below sit measurably in the queue.
  config.max_batch = 8;
  config.max_delay_us = 10'000'000;
  serve::DiagnosisService service(provider, config);

  EXPECT_EQ(service.queue_depth(), 0u);
  std::vector<std::future<core::DiagnoseResponse>> futures;
  for (std::size_t i = 0; i < 5; ++i)
    futures.push_back(service.submit(request_for(indices[i])));
  EXPECT_EQ(service.queue_depth(), 5u);
  EXPECT_EQ(obs::Registry::instance().gauge("serve.queue_depth").value(),
            5.0);

  service.stop();  // releases the parked batch and drains
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(obs::Registry::instance().gauge("serve.queue_depth").value(),
            0.0);
}

TEST(DiagnosisService, RejectCounterIncrementsOnQueueFull) {
  ScopedObs scoped_obs;
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::ServiceConfig config;
  config.max_batch = 8;
  config.max_delay_us = 10'000'000;
  config.queue_capacity = 2;
  serve::DiagnosisService service(provider, config);

  std::vector<std::future<core::DiagnoseResponse>> accepted;
  for (std::size_t i = 0; i < 2; ++i)
    accepted.push_back(service.submit(request_for(indices[i])));
  for (std::size_t i = 0; i < 3; ++i) {
    const core::DiagnoseResponse response =
        service.submit(request_for(indices[2 + i])).get();
    EXPECT_FALSE(response.ok());
    // Rejections are traceable too: the service assigned an id before
    // admission control turned the request away.
    EXPECT_NE(response.trace.request_id, 0u);
  }
  EXPECT_EQ(
      obs::Registry::instance().counter("serve.rejected.queue_full").value(),
      3u);
  service.stop();
  for (auto& future : accepted) EXPECT_TRUE(future.get().ok());
}

TEST(DiagnosisService, RejectCountersAgreeWithStatszAfterStop) {
  ScopedObs scoped_obs;
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::ServiceConfig config;
  config.max_batch = 8;
  config.max_delay_us = 10'000'000;
  config.queue_capacity = 2;
  serve::DiagnosisService service(provider, config);

  std::vector<std::future<core::DiagnoseResponse>> accepted;
  for (std::size_t i = 0; i < 2; ++i)
    accepted.push_back(service.submit(request_for(indices[i])));
  EXPECT_EQ(service.submit(request_for(indices[2])).get().status.code(),
            util::StatusCode::kResourceExhausted);
  service.stop();
  for (auto& future : accepted) EXPECT_TRUE(future.get().ok());
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(service.submit(request_for(indices[i])).get().status.code(),
              util::StatusCode::kUnavailable);

  obs::Registry& registry = obs::Registry::instance();
  const std::uint64_t queue_full =
      registry.counter("serve.rejected.queue_full").value();
  const std::uint64_t stopping =
      registry.counter("serve.rejected.stopping").value();
  EXPECT_EQ(queue_full, 1u);
  EXPECT_EQ(stopping, 2u);
  EXPECT_EQ(service.stats().rejected, queue_full + stopping);

  const serve::StatszSource source{&service, nullptr,
                                   std::chrono::steady_clock::now()};
  auto tree = serve::parse_json(serve::statsz_json(source));
  ASSERT_TRUE(tree.ok()) << tree.status().to_string();
  const serve::JsonValue* stats = tree->find("service");
  ASSERT_NE(stats, nullptr);
  const serve::JsonValue* rejected = stats->find("rejected");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->as_number(), static_cast<double>(queue_full + stopping));
  EXPECT_NE(serve::statsz_prometheus(source).find(
                "\ndiagnet_serve_rejected_total 3\n"),
            std::string::npos);
}

TEST(DiagnosisService, RequestIdsAreUniqueAndTracePhasesAreStamped) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::ServiceConfig config;
  config.max_batch = 8;
  config.max_delay_us = 5'000;
  serve::DiagnosisService service(provider, config);

  constexpr std::size_t kRequests = 24;
  std::vector<std::future<core::DiagnoseResponse>> futures;
  for (std::size_t i = 0; i < kRequests; ++i)
    futures.push_back(service.submit(request_for(indices[i % indices.size()])));
  service.stop();

  std::vector<std::uint64_t> ids;
  for (auto& future : futures) {
    const core::DiagnoseResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status.to_string();
    ids.push_back(response.trace.request_id);
    EXPECT_NE(response.trace.request_id, 0u);
    EXPECT_GE(response.trace.queue_us, 0.0);
    EXPECT_GE(response.trace.assembly_us, 0.0);
    EXPECT_GT(response.trace.inference_us, 0.0);
    EXPECT_GE(response.trace.write_back_us, 0.0);
    EXPECT_GE(response.trace.batch_size, 1u);
    EXPECT_EQ(response.trace.model_generation, provider->generation());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end())
      << "service-assigned request ids must be unique";
}

TEST(Server, SessionEchoesClientIdAndCarriesTrace) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();

  serve::WireRequest wire;
  wire.id = 11;
  wire.request = request_for(indices[0]);
  std::stringstream in;
  in << serve::format_request(wire) << '\n';
  wire.id = 12;
  in << serve::format_request(wire) << '\n';

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::DiagnosisService service(provider);
  std::stringstream out;
  serve::run_session(service, p.feature_space(), in, out, 5);
  service.stop();

  std::vector<std::string> lines;
  for (std::string line; std::getline(out, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  // The client's correlation id comes back verbatim; the service-assigned
  // request_id and trace ride after latency_ms.
  EXPECT_NE(lines[0].find("\"id\":11,\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":12,\"ok\":true"), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"request_id\":"), std::string::npos);
    EXPECT_NE(line.find("\"trace\":{\"queue_us\":"), std::string::npos);
    EXPECT_LT(line.find("\"latency_ms\":"), line.find("\"request_id\":"))
        << "trace fields must come after latency_ms for positional parsers";
  }
}

TEST(Server, InBandStatszAnswersWhileRequestsAreInFlight) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();

  // A provider loaded from a file carries the bundle checksum statsz
  // surfaces; an in-memory provider would report checksum 0.
  const std::string path = testing::TempDir() + "/diagnet_statsz_model.bin";
  ASSERT_TRUE(core::try_save_model_file(p.diagnet(), path).ok());
  auto provider_or = serve::ModelProvider::from_file(path, p.feature_space());
  ASSERT_TRUE(provider_or.ok()) << provider_or.status().to_string();
  auto provider = std::move(provider_or).value();
  ASSERT_NE(provider->checksum(), 0u);

  serve::ServiceConfig config;
  config.max_batch = 8;
  config.max_delay_us = 10'000'000;  // stall: requests stay queued
  serve::DiagnosisService service(provider, config);
  std::vector<std::future<core::DiagnoseResponse>> futures;
  for (std::size_t i = 0; i < 3; ++i)
    futures.push_back(service.submit(request_for(indices[i])));

  const serve::StatszSource source{&service, provider.get(),
                                   std::chrono::steady_clock::now()};
  const std::string snapshot = serve::statsz_json(source);
  auto tree = serve::parse_json(snapshot);
  ASSERT_TRUE(tree.ok()) << tree.status().to_string() << "\n" << snapshot;
  const serve::JsonValue* depth = tree->find("queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->as_number(), 3.0);
  const serve::JsonValue* model = tree->find("model");
  ASSERT_NE(model, nullptr);
  const serve::JsonValue* checksum = model->find("checksum");
  ASSERT_NE(checksum, nullptr);
  EXPECT_EQ(checksum->as_string().substr(0, 2), "0x");
  EXPECT_NE(checksum->as_string(), "0x0000000000000000");

  // The same snapshot answers in-band over a session via SessionHooks.
  serve::SessionHooks hooks;
  hooks.statsz = [&source] { return serve::statsz_json(source); };
  std::stringstream in;
  in << "{\"cmd\":\"statsz\"}\n";
  in << "{\"cmd\":\"no_such_cmd\"}\n";
  std::stringstream out;
  const serve::SessionStats stats = serve::run_session(
      service, p.feature_space(), in, out, 5, nullptr, &hooks);
  EXPECT_EQ(stats.responses, 2u);
  EXPECT_EQ(stats.errors, 1u);  // only the unknown cmd is an error
  std::vector<std::string> lines;
  for (std::string line; std::getline(out, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(serve::parse_json(lines[0]).ok());
  EXPECT_NE(lines[0].find("\"queue_depth\":3"), std::string::npos);
  EXPECT_NE(lines[1].find("invalid_argument"), std::string::npos);

  // Without hooks the command degrades to a status line, not a crash.
  std::stringstream in2("{\"cmd\":\"statsz\"}\n");
  std::stringstream out2;
  serve::run_session(service, p.feature_space(), in2, out2, 5);
  EXPECT_NE(out2.str().find("unavailable"), std::string::npos);

  service.stop();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
}

TEST(Server, PrometheusExportsSpanHistograms) {
  ScopedObs scoped_obs;
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::DiagnosisService service(provider);
  EXPECT_TRUE(service.submit(request_for(indices[0])).get().ok());
  service.stop();  // joins the dispatcher, so the serve.batch span closed

  const serve::StatszSource source{&service, provider.get(),
                                   std::chrono::steady_clock::now()};
  const std::string prometheus = serve::statsz_prometheus(source);
  EXPECT_NE(prometheus.find("# TYPE diagnet_serve_batch_ms summary\n"),
            std::string::npos)
      << prometheus;
  EXPECT_NE(prometheus.find("\ndiagnet_serve_batch_ms{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(prometheus.find("\ndiagnet_serve_batch_ms_count 1\n"),
            std::string::npos);
}

TEST(Server, StatszAndMetricsReportOnePeakRss) {
  const serve::StatszSource source{nullptr, nullptr,
                                   std::chrono::steady_clock::now()};
  const auto peak_kib = [&source] {
    auto tree = serve::parse_json(serve::statsz_json(source));
    EXPECT_TRUE(tree.ok()) << tree.status().to_string();
    if (!tree.ok()) return 0.0;
    const serve::JsonValue* process = tree->find("process");
    const serve::JsonValue* peak =
        process != nullptr ? process->find("peak_rss_kib") : nullptr;
    EXPECT_NE(peak, nullptr);
    return peak != nullptr ? peak->as_number() : 0.0;
  };
  // Peak RSS only grows, so the scrape between two snapshots is bracketed
  // by them (up to the exposition's 9 significant digits).
  const double before_kib = peak_kib();
  const std::string prometheus = serve::statsz_prometheus(source);
  const double after_kib = peak_kib();
  EXPECT_GT(before_kib, 0.0);

  const std::string series = "\ndiagnet_process_peak_rss_bytes ";
  EXPECT_NE(prometheus.find("# TYPE diagnet_process_peak_rss_bytes gauge\n"),
            std::string::npos)
      << prometheus;
  const std::size_t at = prometheus.find(series);
  ASSERT_NE(at, std::string::npos) << prometheus;
  const double bytes = std::stod(prometheus.substr(at + series.size()));
  EXPECT_GE(bytes, 1024.0 * before_kib * (1.0 - 1e-8));
  EXPECT_LE(bytes, 1024.0 * after_kib * (1.0 + 1e-8));
}

#if defined(__linux__)

TEST(Server, PrometheusTypesEachSeriesOnce) {
  ScopedObs scoped_obs;
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::DiagnosisService service(provider);
  serve::Reactor reactor(service, p.feature_space(), serve::ReactorConfig{});
  // A served request records serve.accepted and serve.queue_depth; a live
  // reactor records its own counters and gauges. Each mirrors a field the
  // Stats blocks export already.
  EXPECT_TRUE(service.submit(request_for(indices[0])).get().ok());
  service.stop();
  obs::Registry& registry = obs::Registry::instance();
  for (const char* name :
       {"reactor.accepted", "reactor.idle_timeouts",
        "reactor.slow_reader_closes", "reactor.oversized_lines",
        "reactor.backpressure_stalls", "reactor.over_capacity"})
    registry.counter(name).add();
  registry.gauge("reactor.open_connections").set(1.0);
  registry.gauge("reactor.buffered_bytes").set(0.0);

  const serve::StatszSource source{&service, provider.get(),
                                   std::chrono::steady_clock::now(),
                                   &reactor};
  const std::string prometheus = serve::statsz_prometheus(source);
  std::set<std::string> names;
  std::istringstream lines(prometheus);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::string name = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_TRUE(names.insert(name).second) << "typed twice: " << name;
  }
  EXPECT_EQ(names.count("diagnet_serve_accepted_total"), 1u);
  EXPECT_EQ(names.count("diagnet_reactor_accepted_total"), 1u);
  EXPECT_EQ(names.count("diagnet_serve_batch_ms"), 1u);
}

TEST(Server, LoadgenDrivesReactorEndToEnd) {
  auto& p = pipeline();
  const std::vector<std::size_t> indices = p.faulty_test_indices();

  auto provider = std::make_shared<serve::ModelProvider>(pipeline_model());
  serve::ServiceConfig config;
  config.max_batch = 8;
  config.max_delay_us = 2'000;
  serve::DiagnosisService service(provider, config);

  const serve::StatszSource source{&service, provider.get(),
                                   std::chrono::steady_clock::now()};
  serve::SessionHooks hooks;
  hooks.statsz = [&source] { return serve::statsz_json(source); };

  serve::Reactor reactor(service, p.feature_space(), serve::ReactorConfig{},
                         &hooks);
  std::atomic<std::uint16_t> bound_port{0};
  ASSERT_TRUE(reactor.listen(/*port=*/0, &bound_port).ok());
  std::atomic<bool> stop{false};
  std::thread runner([&] {
    const util::Status status = reactor.run(stop);
    EXPECT_TRUE(status.ok()) << status.to_string();
  });

  serve::LoadgenConfig loadgen;
  loadgen.port = bound_port.load();
  loadgen.requests = 40;
  loadgen.concurrency = 2;
  loadgen.seed = 99;
  for (std::size_t i = 0; i < 4; ++i) {
    serve::WireRequest wire;
    wire.id = i + 1;
    wire.request = request_for(indices[i]);
    loadgen.pool.push_back(serve::format_request(wire));
  }
  const auto report = serve::run_loadgen(loadgen);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->sent, 40u);
  EXPECT_EQ(report->ok, 40u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->latency_ms.count, 40u);
  EXPECT_GT(report->latency_ms.percentile(0.99), 0.0);
  // The mid-run statsz probe answered with a parseable snapshot.
  ASSERT_FALSE(report->statsz.empty());
  auto probed = serve::parse_json(report->statsz);
  ASSERT_TRUE(probed.ok()) << report->statsz;
  EXPECT_NE(probed->find("queue_depth"), nullptr);

  stop.store(true);
  runner.join();
  service.stop();
}

#endif  // __linux__

// ---------------------------------------------------------------------------
// Per-service specialized heads merged and reloaded by ModelProvider

TEST(ModelRouter, ParseServiceModels) {
  auto empty = serve::parse_service_models("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  auto specs = serve::parse_service_models("0:a.bin,3:b.bin");
  ASSERT_TRUE(specs.ok()) << specs.status().to_string();
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0].service, 0u);
  EXPECT_EQ((*specs)[0].path, "a.bin");
  EXPECT_EQ((*specs)[1].service, 3u);
  EXPECT_EQ((*specs)[1].path, "b.bin");

  EXPECT_FALSE(serve::parse_service_models("x:a.bin").ok());
  EXPECT_FALSE(serve::parse_service_models("0:").ok());
  EXPECT_FALSE(serve::parse_service_models(":a.bin").ok());
  EXPECT_FALSE(serve::parse_service_models("0a.bin").ok());
  EXPECT_FALSE(serve::parse_service_models("0:a.bin,0:b.bin").ok());
  EXPECT_FALSE(serve::parse_service_models("0:a.bin,,1:b.bin").ok());
  EXPECT_FALSE(serve::parse_service_models("99999999999999999999:a").ok());
}

/// Shared fixture material for the head-merge tests: a general bundle on disk
/// plus two per-service head bundles fine-tuned (on a truncated split, so
/// their heads are bit-distinguishable from the general model's own) the
/// way `diagnet train --freeze-kernel --service <id>` produces them.
struct RouterBundles {
  std::string general_path;
  std::size_t service_a = 0, service_b = 0;
  std::string head_a_path, head_b_path;
};

RouterBundles make_router_bundles(const std::string& tag) {
  auto& p = pipeline();
  RouterBundles b;
  const std::string dir = testing::TempDir();
  b.general_path = dir + "/router_general_" + tag + ".bin";
  EXPECT_TRUE(core::try_save_model_file(p.diagnet(), b.general_path).ok());

  // Two distinct services that actually occur in the faulty test set.
  const auto& samples = p.split().test.samples;
  const std::vector<std::size_t> indices = p.faulty_test_indices();
  b.service_a = samples[indices[0]].service;
  for (std::size_t idx : indices)
    if (samples[idx].service != b.service_a) {
      b.service_b = samples[idx].service;
      break;
    }
  EXPECT_NE(b.service_a, b.service_b);

  data::Dataset small_train = p.split().train;
  small_train.samples.resize(small_train.samples.size() / 2);

  const auto fine_tune = [&](std::size_t service, const std::string& path) {
    auto donor = core::try_load_model_file(b.general_path, p.feature_space());
    ASSERT_TRUE(donor.ok()) << donor.status().to_string();
    (*donor)->specialize(service, small_train);
    ASSERT_TRUE(core::try_save_model_file(**donor, path).ok());
  };
  b.head_a_path = dir + "/router_head_a_" + tag + ".bin";
  b.head_b_path = dir + "/router_head_b_" + tag + ".bin";
  fine_tune(b.service_a, b.head_a_path);
  fine_tune(b.service_b, b.head_b_path);
  return b;
}

TEST(ModelRouter, RoutesByServiceAcrossBundles) {
  auto& p = pipeline();
  const RouterBundles b = make_router_bundles("route");

  auto provider_or = serve::ModelProvider::from_file(
      b.general_path, p.feature_space(),
      {{b.service_a, b.head_a_path}, {b.service_b, b.head_b_path}});
  ASSERT_TRUE(provider_or.ok()) << provider_or.status().to_string();
  auto provider = std::move(provider_or).value();

  const std::vector<std::size_t> routed =
      provider->current()->specialized_services();
  EXPECT_TRUE(std::find(routed.begin(), routed.end(), b.service_a) !=
              routed.end());
  EXPECT_TRUE(std::find(routed.begin(), routed.end(), b.service_b) !=
              routed.end());
  ASSERT_NE(provider, nullptr);
  EXPECT_EQ(provider->generation(), 1u);
  EXPECT_NE(provider->checksum(), 0u);

  // Per routed service: the merged model must answer with the donor
  // bundle's head (bit-identical to diagnosing against the donor model
  // directly), not the general bundle's own head for that service.
  const auto check_routed = [&](std::size_t service,
                                const std::string& head_path) {
    const auto& samples = p.split().test.samples;
    core::DiagnoseRequest request;
    for (std::size_t idx : p.faulty_test_indices())
      if (samples[idx].service == service) {
        request = request_for(idx);
        break;
      }

    auto donor = core::try_load_model_file(head_path, p.feature_space());
    ASSERT_TRUE(donor.ok());
    core::DiagnoseResponse want = (*donor)->diagnose(request);
    ASSERT_TRUE(want.ok());

    auto base = core::try_load_model_file(b.general_path, p.feature_space());
    ASSERT_TRUE(base.ok());
    core::DiagnoseResponse general = (*base)->diagnose(request);
    ASSERT_TRUE(general.ok());
    ASSERT_NE(want.diagnosis.scores, general.diagnosis.scores)
        << "fine-tuned and general heads must be distinguishable";

    core::DiagnoseResponse got = provider->current()->diagnose(request);
    ASSERT_TRUE(got.ok()) << got.status.to_string();
    expect_bit_identical(got.diagnosis, want.diagnosis);
  };
  check_routed(b.service_a, b.head_a_path);
  check_routed(b.service_b, b.head_b_path);
}

TEST(ModelRouter, ReloadIsAllOrNothingAcrossBundles) {
  auto& p = pipeline();
  const RouterBundles b = make_router_bundles("reload");

  auto provider_or = serve::ModelProvider::from_file(
      b.general_path, p.feature_space(),
      {{b.service_a, b.head_a_path}, {b.service_b, b.head_b_path}});
  ASSERT_TRUE(provider_or.ok()) << provider_or.status().to_string();
  auto provider = std::move(provider_or).value();
  const std::uint64_t checksum_v1 = provider->checksum();

  const auto& samples = p.split().test.samples;
  core::DiagnoseRequest request_a, request_b;
  for (std::size_t idx : p.faulty_test_indices()) {
    if (samples[idx].service == b.service_a) request_a = request_for(idx);
    if (samples[idx].service == b.service_b) request_b = request_for(idx);
  }
  core::DiagnoseResponse before_a =
      provider->current()->diagnose(request_a);
  core::DiagnoseResponse before_b =
      provider->current()->diagnose(request_b);
  ASSERT_TRUE(before_a.ok() && before_b.ok());

  // Unchanged files: a no-op poll.
  util::Status status;
  EXPECT_FALSE(provider->poll_and_reload(&status));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(provider->generation(), 1u);

  // Corrupting ONE bundle must refuse the whole reload: the previous merge
  // keeps serving every service (generations are atomic across bundles).
  {
    std::ofstream corrupt(b.head_a_path,
                          std::ios::trunc | std::ios::binary);
    corrupt << "not a model bundle";
  }
  std::filesystem::last_write_time(
      b.head_a_path, std::filesystem::file_time_type::clock::now() +
                         std::chrono::seconds(2));
  EXPECT_FALSE(provider->poll_and_reload(&status));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(provider->generation(), 1u);
  core::DiagnoseResponse during_a =
      provider->current()->diagnose(request_a);
  ASSERT_TRUE(during_a.ok());
  expect_bit_identical(during_a.diagnosis, before_a.diagnosis);

  // A repaired bundle (re-fine-tuned on an even smaller split, so its head
  // is distinguishable from v1) swaps the whole merge in one generation
  // bump; the untouched service_b bundle keeps its bits.
  {
    data::Dataset tiny_train = p.split().train;
    tiny_train.samples.resize(tiny_train.samples.size() / 4);
    auto donor = core::try_load_model_file(b.general_path, p.feature_space());
    ASSERT_TRUE(donor.ok());
    (*donor)->specialize(b.service_a, tiny_train);
    ASSERT_TRUE(core::try_save_model_file(**donor, b.head_a_path).ok());
  }
  std::filesystem::last_write_time(
      b.head_a_path, std::filesystem::file_time_type::clock::now() +
                         std::chrono::seconds(4));
  EXPECT_TRUE(provider->poll_and_reload(&status));
  EXPECT_TRUE(status.ok()) << status.to_string();
  EXPECT_EQ(provider->generation(), 2u);
  EXPECT_NE(provider->checksum(), checksum_v1);

  core::DiagnoseResponse after_a =
      provider->current()->diagnose(request_a);
  core::DiagnoseResponse after_b =
      provider->current()->diagnose(request_b);
  ASSERT_TRUE(after_a.ok() && after_b.ok());
  EXPECT_NE(after_a.diagnosis.scores, before_a.diagnosis.scores)
      << "service A must serve the repaired bundle after the swap";
  expect_bit_identical(after_b.diagnosis, before_b.diagnosis);
}

TEST(ModelRouter, RefusesAHeadFineTunedFromAnotherGeneral) {
  // A general trained with another seed has another frozen representation,
  // so a head fine-tuned on it cannot run on the default bundle's.
  auto& p = pipeline();
  const std::string dir = testing::TempDir();
  const std::string general_path = dir + "/router_seed_general.bin";
  ASSERT_TRUE(core::try_save_model_file(p.diagnet(), general_path).ok());

  core::DiagNetConfig config = p.diagnet().config();
  config.seed ^= 0x5eedULL;
  config.trainer.max_epochs = 1;
  config.specialization.max_epochs = 1;
  config.auxiliary.n_estimators = 2;
  core::DiagNetModel other(p.feature_space(), config);
  other.train_general(p.split().train);
  const std::size_t service = p.split().train.samples.front().service;
  other.specialize(service, p.split().train);
  const std::string head_path = dir + "/router_seed_head.bin";
  ASSERT_TRUE(core::try_save_model_file(other, head_path).ok());

  const auto created = serve::ModelProvider::from_file(
      general_path, p.feature_space(), {{service, head_path}});
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), util::StatusCode::kFailedPrecondition)
      << created.status().to_string();
}

TEST(ModelRouter, CreateFailsClosedOnBadBundle) {
  auto& p = pipeline();
  const std::string dir = testing::TempDir();
  const std::string general_path = dir + "/router_badcreate_general.bin";
  ASSERT_TRUE(core::try_save_model_file(p.diagnet(), general_path).ok());
  const std::string bad_path = dir + "/router_badcreate_head.bin";
  {
    std::ofstream bad(bad_path, std::ios::trunc | std::ios::binary);
    bad << "garbage";
  }
  EXPECT_FALSE(serve::ModelProvider::from_file(general_path,
                                               p.feature_space(),
                                               {{0, bad_path}})
                   .ok());

  // Missing file: same fail-closed behavior.
  EXPECT_FALSE(serve::ModelProvider::from_file(
                   general_path, p.feature_space(),
                   {{0, dir + "/does_not_exist.bin"}})
                   .ok());
}

}  // namespace
}  // namespace diagnet
