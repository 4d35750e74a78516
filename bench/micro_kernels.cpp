// Micro-benchmarks (google-benchmark) for the numeric substrate and the
// end-to-end inference path: GEMM variants at the coarse model's shapes,
// LandPooling forward/backward, attention, full diagnose(), and baseline
// model inference. The paper quotes a 45 ms mean inference latency on a
// laptop CPU; bm_diagnose_full is the directly comparable number.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <thread>

#include "core/batch_diagnoser.h"
#include "core/diagnet.h"
#include "data/encoding.h"
#include "eval/metrics.h"
#include "eval/pipeline.h"
#include "serve/service.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "nn/coarse_net.h"
#include "nn/softmax.h"
#include "nn/trainer.h"
#include "tensor/dispatch.h"
#include "tensor/ops.h"
#include "testkit/gen.h"
#include "util/rng.h"

namespace {

using namespace diagnet;

// Benchmark inputs come from the same generator the property suites use,
// so a kernel benched here sees the distribution the oracles verify.
tensor::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  return testkit::gen::matrix(rng, rows, cols);
}

void bm_gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Matrix a = random_matrix(64, n, 1);
  const tensor::Matrix b = random_matrix(n, 512, 2);
  tensor::Matrix c;
  for (auto _ : state) {
    tensor::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          static_cast<std::int64_t>(n) * 512);
}
BENCHMARK(bm_gemm)->Arg(128)->Arg(317)->Arg(512);

// The single-row fast path (routes to the dispatched gemv kernel): an
// attention-style row against a hidden layer.
void bm_gemm_small(benchmark::State& state) {
  const tensor::Matrix a = random_matrix(1, 128, 8);
  const tensor::Matrix b = random_matrix(128, 64, 9);
  tensor::Matrix c;
  for (auto _ : state) {
    tensor::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128 *
                          64);
}
BENCHMARK(bm_gemm_small);

// The tiled + thread-pool path (above the parallel-dispatch threshold):
// a validation-sized batch against the widest coarse layer.
void bm_gemm_large(benchmark::State& state) {
  const tensor::Matrix a = random_matrix(256, 512, 10);
  const tensor::Matrix b = random_matrix(512, 512, 11);
  tensor::Matrix c;
  for (auto _ : state) {
    tensor::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256 *
                          512 * 512);
}
BENCHMARK(bm_gemm_large);

/// Synthetic training set at the coarse model's default shapes (10
/// landmarks x 5 features, 13 pool ops x 24 filters -> 317-wide concat).
nn::CoarseDataset training_dataset(std::size_t n) {
  constexpr std::size_t kL = 10;
  constexpr std::size_t kK = 5;
  util::Rng rng(12);
  nn::CoarseDataset data;
  data.land = random_matrix(n, kL * kK, 13);
  data.mask = tensor::Matrix(n, kL, 1.0);
  data.local = random_matrix(n, 5, 14);
  data.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) data.labels[i] = rng.uniform_index(7);
  return data;
}

/// One full training epoch (8 minibatches of 64) through the sharded
/// data-parallel engine, at 1 worker vs N workers. Training is
/// bit-identical across thread counts, so the arg only changes wall time.
void bm_train_epoch(benchmark::State& state) {
  const nn::CoarseDataset data = training_dataset(512);
  util::Rng rng(15);
  nn::CoarseNet net(nn::CoarseNetConfig{}, rng);
  nn::TrainerConfig config;
  config.max_epochs = 1;
  config.validation_fraction = 0.0;
  config.restore_best = false;
  config.sgd.learning_rate = 0.01;
  config.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto history = nn::train_coarse(net, data, config);
    benchmark::DoNotOptimize(history.epochs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(bm_train_epoch)->Arg(1)->Arg(4);

void bm_land_pooling_forward(benchmark::State& state) {
  util::Rng rng(3);
  nn::LandPooling pool(5, 24, nn::default_pool_ops(), rng);
  const tensor::Matrix land = random_matrix(64, 10 * 5, 4);
  const tensor::Matrix mask(64, 10, 1.0);
  nn::LandPooling::PoolContext ctx;
  tensor::Matrix out;
  for (auto _ : state) {
    pool.forward(land, mask, ctx, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(bm_land_pooling_forward);

/// One whole LandPooling pass on `rows` samples of 10 landmarks: the
/// forward ranks every (sample, filter) once and the backward routes
/// through that order, so a backward alone is no longer the cost to time.
/// Reported per sample (items/s).
template <typename Backward>
void land_pooling_pass(benchmark::State& state, Backward backward) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  nn::LandPooling pool(5, 24, nn::default_pool_ops(), rng);
  const tensor::Matrix land = random_matrix(rows, 10 * 5, 6);
  const tensor::Matrix mask(rows, 10, 1.0);
  const tensor::Matrix grad = random_matrix(rows, pool.out_features(), 7);
  nn::LandPooling::PoolContext ctx;
  tensor::Matrix pooled;
  for (auto _ : state) {
    pool.forward(land, mask, ctx, pooled);
    backward(pool, grad, ctx);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}

/// forward + backward_input: the attention path, at the single-request
/// (1) and batched-engine chunk (32) shapes.
void bm_land_pooling_attention(benchmark::State& state) {
  tensor::Matrix dland;
  land_pooling_pass(state, [&](const nn::LandPooling& pool,
                               const tensor::Matrix& grad,
                               nn::LandPooling::PoolContext& ctx) {
    pool.backward_input(grad, ctx, dland);
    benchmark::DoNotOptimize(dland.data());
  });
}
BENCHMARK(bm_land_pooling_attention)->Arg(1)->Arg(32);

/// forward + backward_params: one trainer shard (16 rows).
void bm_land_pooling_train(benchmark::State& state) {
  tensor::Matrix kernel_grad(24, 5), bias_grad(1, 24);
  land_pooling_pass(state, [&](const nn::LandPooling& pool,
                               const tensor::Matrix& grad,
                               nn::LandPooling::PoolContext& ctx) {
    pool.backward_params(grad, ctx, kernel_grad, bias_grad);
    benchmark::DoNotOptimize(kernel_grad.data());
  });
}
BENCHMARK(bm_land_pooling_train)->Arg(16);

/// Shared trained pipeline for the end-to-end benchmarks (built once).
eval::Pipeline& shared_pipeline() {
  static auto pipeline = [] {
    eval::PipelineConfig config = eval::PipelineConfig::small();
    return std::make_unique<eval::Pipeline>(config);
  }();
  return *pipeline;
}

void bm_coarse_forward_single(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto faulty = pipeline.faulty_test_indices();
  const auto& sample = pipeline.split().test.samples[faulty.front()];
  const std::vector<bool> all(pipeline.feature_space().landmark_count(),
                              true);
  const nn::LandBatch batch =
      data::encode_sample(sample.features, pipeline.feature_space(),
                          pipeline.diagnet().normalizer(), all);
  const nn::CoarseNet& net = pipeline.diagnet().general_net();
  nn::CoarseWorkspace ws;
  for (auto _ : state) {
    const nn::Matrix& logits = net.forward(batch, ws);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(bm_coarse_forward_single);

void bm_diagnose_full(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto faulty = pipeline.faulty_test_indices();
  const auto& sample = pipeline.split().test.samples[faulty.front()];
  auto& model = pipeline.diagnet();
  core::DiagnoseRequest request;
  request.features = sample.features;
  request.service = sample.service;
  for (auto _ : state) {
    auto response = model.diagnose(request);
    benchmark::DoNotOptimize(response.diagnosis.scores.data());
  }
}
BENCHMARK(bm_diagnose_full);  // paper: 45 ms mean inference

/// Cycle through the faulty test samples to build n diagnosis requests
/// (empty landmark_available = all landmarks observable).
std::vector<core::DiagnoseRequest> batch_requests(eval::Pipeline& pipeline,
                                                  std::size_t n) {
  const auto faulty = pipeline.faulty_test_indices();
  const auto& test = pipeline.split().test.samples;
  std::vector<core::DiagnoseRequest> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& sample = test[faulty[i % faulty.size()]];
    requests[i].features = sample.features;
    requests[i].service = sample.service;
  }
  return requests;
}

void bm_diagnose_batch(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto requests = batch_requests(pipeline, n);
  core::BatchDiagnoserConfig config;
  config.batch_size = 256;
  const core::BatchDiagnoser batcher(pipeline.diagnet(), config);
  for (auto _ : state) {
    auto out = batcher.run(requests);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(bm_diagnose_batch)->Arg(1)->Arg(64)->Arg(256);

/// End-to-end throughput of the online serving queue: 256 requests flooded
/// through DiagnosisService::submit at max_batch 1 (no amortisation — every
/// request pays its own network passes plus the dispatch overhead) vs 64.
/// `serve_speedup` in BENCH_micro_kernels.json tracks batch-64 vs the
/// unbatched diagnose() rate; the ratio shrank when the single-sample path
/// switched to the input-only backward (the denominator got ~4x faster),
/// so the floor is now 1.25x — watch the absolute rates too.
void bm_serve_throughput(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto max_batch = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRequests = 256;
  const auto requests = batch_requests(pipeline, kRequests);

  auto provider = std::make_shared<serve::ModelProvider>(
      std::shared_ptr<core::DiagNetModel>(std::shared_ptr<void>{},
                                          &pipeline.diagnet()));
  serve::ServiceConfig serve_config;
  serve_config.max_batch = max_batch;
  serve_config.max_delay_us = 1000;
  serve_config.queue_capacity = kRequests + 1;
  serve::DiagnosisService service(provider, serve_config);

  std::vector<std::future<core::DiagnoseResponse>> futures;
  futures.reserve(kRequests);
  for (auto _ : state) {
    futures.clear();
    for (const auto& request : requests)
      futures.push_back(service.submit(request));
    for (auto& future : futures)
      benchmark::DoNotOptimize(future.get().diagnosis.scores.data());
  }
  service.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRequests));
}
BENCHMARK(bm_serve_throughput)->Arg(1)->Arg(64);

void bm_rf_score(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto faulty = pipeline.faulty_test_indices();
  const auto idx = faulty.front();
  for (auto _ : state) {
    auto ranking = pipeline.rank(eval::ModelKind::RandomForest, idx);
    benchmark::DoNotOptimize(ranking.data());
  }
}
BENCHMARK(bm_rf_score);

void bm_nb_score(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto faulty = pipeline.faulty_test_indices();
  const auto idx = faulty.front();
  for (auto _ : state) {
    auto ranking = pipeline.rank(eval::ModelKind::NaiveBayes, idx);
    benchmark::DoNotOptimize(ranking.data());
  }
}
BENCHMARK(bm_nb_score);

void bm_probe_landmarks(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto& sim = pipeline.simulator();
  const auto client = netsim::ClientProfile::make(0, 1, sim.seed());
  util::Rng rng(11);
  const netsim::ActiveFaults none;
  for (auto _ : state) {
    auto probes =
        sim.probe_landmarks(client, netsim::ClientCondition{}, 12.0, none,
                            rng);
    benchmark::DoNotOptimize(probes.data());
  }
}
BENCHMARK(bm_probe_landmarks);

/// Head-to-head throughput check for the PR acceptance gate: diagnose 512
/// samples with the per-sample loop vs the batched engine at batch 256, and
/// record both rates (plus the speedup) in BENCH_micro_kernels.json — the
/// same slot bench_util.h uses for the other benches' perf trajectory.
void write_speedup_report(std::chrono::steady_clock::time_point start) {
  auto& pipeline = shared_pipeline();
  auto& model = pipeline.diagnet();
  constexpr std::size_t kSamples = 512;
  const auto requests = batch_requests(pipeline, kSamples);

  core::BatchDiagnoserConfig config;
  config.batch_size = 256;
  const core::BatchDiagnoser batcher(model, config);

  const auto run_seq = [&] {
    for (const auto& request : requests) {
      auto response = model.diagnose(request);
      benchmark::DoNotOptimize(response.diagnosis.scores.data());
    }
  };
  const auto run_batch = [&] {
    auto out = batcher.run(requests);
    benchmark::DoNotOptimize(out.data());
  };

  using clock = std::chrono::steady_clock;
  const auto time_of = [&](const auto& fn) {
    fn();  // warm-up (touches caches, first-use allocations)
    const auto t0 = clock::now();
    fn();
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  const double seq_seconds = time_of(run_seq);
  const double batch_seconds = time_of(run_batch);
  const double seq_rate = static_cast<double>(kSamples) / seq_seconds;
  const double batch_rate = static_cast<double>(kSamples) / batch_seconds;
  const double speedup = seq_seconds / batch_seconds;

  std::printf(
      "\ndiagnosis throughput (%zu samples): per-sample %.1f /s, "
      "batch-256 %.1f /s, speedup %.2fx\n",
      kSamples, seq_rate, batch_rate, speedup);

  // Online serving gate: micro-batched serving (flood at max_batch 64)
  // vs single-request serving, where every request pays the unbatched
  // diagnose() path measured above (seq_rate) — one encode, one
  // forward+backward and fresh allocations per request. That is the
  // architecture `diagnet serve` replaces; acceptance is >= 2x on one
  // core. The closed-loop max_batch=1 round-trip rate through the queue
  // is recorded too (serve_roundtrip_rps) — it already benefits from the
  // batch engine's workspace reuse, so it is NOT the single-request
  // baseline, just the dispatch-overhead yardstick.
  const auto serve_seconds = [&](std::size_t max_batch, bool flood) {
    auto provider = std::make_shared<serve::ModelProvider>(
        std::shared_ptr<core::DiagNetModel>(std::shared_ptr<void>{},
                                            &model));
    serve::ServiceConfig serve_config;
    serve_config.max_batch = max_batch;
    serve_config.max_delay_us = 1000;
    serve_config.queue_capacity = kSamples + 1;
    serve::DiagnosisService service(provider, serve_config);
    service.submit(requests[0]).get();  // warm-up
    const auto t0 = clock::now();
    if (flood) {
      std::vector<std::future<core::DiagnoseResponse>> futures;
      futures.reserve(requests.size());
      for (const auto& request : requests)
        futures.push_back(service.submit(request));
      for (auto& future : futures)
        benchmark::DoNotOptimize(future.get().diagnosis.scores.data());
    } else {
      for (const auto& request : requests)
        benchmark::DoNotOptimize(
            service.submit(request).get().diagnosis.scores.data());
    }
    const double seconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    service.stop();
    return seconds;
  };
  const double serve_roundtrip_seconds = serve_seconds(1, /*flood=*/false);
  const double serve_batch_seconds = serve_seconds(64, /*flood=*/true);
  const double serve_single_rps = seq_rate;  // unbatched diagnose() path
  const double serve_roundtrip_rps =
      static_cast<double>(kSamples) / serve_roundtrip_seconds;
  const double serve_batch64_rps =
      static_cast<double>(kSamples) / serve_batch_seconds;
  const double serve_speedup = serve_batch64_rps / serve_single_rps;
  std::printf(
      "serve throughput (%zu requests): single-request %.1f /s, "
      "queue round-trip %.1f /s, batch-64 %.1f /s, speedup %.2fx\n",
      kSamples, serve_single_rps, serve_roundtrip_rps, serve_batch64_rps,
      serve_speedup);

  // Sharded-trainer scaling: one epoch over 512 samples at 1 worker vs 4.
  // The partition and reduction order are thread-count invariant, so both
  // runs compute the same bits; only wall time may differ. The measured
  // ratio is only meaningful relative to hardware_threads below — on a
  // single-core host the 4-thread run cannot be faster.
  const auto time_epoch = [&](std::size_t threads) {
    const nn::CoarseDataset data = training_dataset(512);
    util::Rng rng(16);
    nn::CoarseNet net(nn::CoarseNetConfig{}, rng);
    nn::TrainerConfig trainer;
    trainer.max_epochs = 1;
    trainer.validation_fraction = 0.0;
    trainer.restore_best = false;
    trainer.sgd.learning_rate = 0.01;
    trainer.threads = threads;
    train_coarse(net, data, trainer);  // warm-up (pools, first allocations)
    const auto t0 = clock::now();
    train_coarse(net, data, trainer);
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  const double epoch_1t = time_epoch(1);
  const double epoch_4t = time_epoch(4);
  // On a single-core host the 4-thread run cannot be faster, so the ratio
  // would only record scheduler noise; the report emits null there.
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const bool train_speedup_meaningful = hardware_threads > 1;
  const double train_speedup = epoch_1t / epoch_4t;
  std::printf(
      "train epoch (512 samples): 1 thread %.3f s, 4 threads %.3f s, "
      "speedup %.2fx (%u hardware threads%s)\n",
      epoch_1t, epoch_4t, train_speedup, hardware_threads,
      train_speedup_meaningful ? "" : "; ratio not meaningful, skipped");

  // ------------------------------------------------------------------
  // Per-tier kernel and single-sample inference timings: force each
  // supported dispatch tier in turn and time the coarse model's GEMM
  // (64x317 * 317x512, two parallel row blocks), the same GEMM at one
  // 32-row block (the serial regime a served batch runs in), the FC1
  // input gradient (32x512 * (317x512)^T), the single-row GEMV path, and
  // the full diagnose() round trip. The avx2 column is null on hardware
  // without AVX2+FMA. simd_single_speedup (avx2 vs scalar single-sample
  // inference) is the PR acceptance gate: >= 1.5x on AVX2 hardware.
  const tensor::Matrix gemm_a = random_matrix(64, 317, 21);
  const tensor::Matrix gemm_b = random_matrix(317, 512, 22);
  const tensor::Matrix gemv_x = random_matrix(1, 317, 23);
  const tensor::Matrix gemm32_a = random_matrix(32, 317, 24);
  const tensor::Matrix grad32 = random_matrix(32, 512, 25);
  const auto time_product = [&](const auto& product, const tensor::Matrix& a,
                                const tensor::Matrix& b, std::size_t reps) {
    tensor::Matrix c;
    product(a, b, c);  // warm-up
    const auto t0 = clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      product(a, b, c);
      benchmark::DoNotOptimize(c.data());
    }
    return std::chrono::duration<double>(clock::now() - t0).count() /
           static_cast<double>(reps);
  };
  const auto infer_rps = [&] {
    // Same hot single-request workload as bm_diagnose_full (cycling the
    // 512-sample pool adds tier-independent cache-miss cost that dilutes
    // the scalar/avx2 ratio, and a short window is noise-dominated on a
    // loaded 1-core host). Calibrate the call count to a ~0.4 s window
    // and keep the best of three windows.
    const core::DiagnoseRequest& request = requests.front();
    const auto run_window = [&](std::size_t calls) {
      const auto t0 = clock::now();
      for (std::size_t i = 0; i < calls; ++i)
        benchmark::DoNotOptimize(
            model.diagnose(request).diagnosis.scores.data());
      return static_cast<double>(calls) /
             std::chrono::duration<double>(clock::now() - t0).count();
    };
    const double warm_rps = run_window(64);  // warm-up + calibration
    const std::size_t calls = std::max<std::size_t>(
        128, static_cast<std::size_t>(warm_rps * 0.4));
    double best = 0.0;
    for (int window = 0; window < 3; ++window)
      best = std::max(best, run_window(calls));
    return best;
  };
  struct TierTiming {
    double gemm_seconds = 0.0;
    double gemm32_seconds = 0.0;
    double gemm_a_bt_seconds = 0.0;
    double gemv_seconds = 0.0;
    double infer_rps = 0.0;
  };
  const auto time_tier = [&](tensor::KernelTier tier, TierTiming* out) {
    if (!tensor::force_kernel_tier(tier)) return false;
    out->gemm_seconds = time_product(tensor::gemm, gemm_a, gemm_b, 40);
    out->gemm32_seconds = time_product(tensor::gemm, gemm32_a, gemm_b, 80);
    out->gemm_a_bt_seconds =
        time_product(tensor::gemm_a_bt, grad32, gemm_b, 80);
    out->gemv_seconds = time_product(tensor::gemm, gemv_x, gemm_b, 2000);
    out->infer_rps = infer_rps();
    return true;
  };
  TierTiming scalar_timing, avx2_timing;
  time_tier(tensor::KernelTier::kScalar, &scalar_timing);
  const bool have_avx2 =
      time_tier(tensor::KernelTier::kAvx2, &avx2_timing);
  tensor::reset_kernel_tier();  // back to DIAGNET_KERNEL / auto dispatch
  const double simd_single_speedup =
      have_avx2 ? avx2_timing.infer_rps / scalar_timing.infer_rps : 0.0;
  std::printf(
      "kernel tiers: scalar gemm %.3f ms, gemm m=32 %.3f ms, gemm_a_bt "
      "%.3f ms, gemv %.1f us, single-infer %.1f /s\n",
      scalar_timing.gemm_seconds * 1e3, scalar_timing.gemm32_seconds * 1e3,
      scalar_timing.gemm_a_bt_seconds * 1e3,
      scalar_timing.gemv_seconds * 1e6, scalar_timing.infer_rps);
  if (have_avx2)
    std::printf(
        "              avx2   gemm %.3f ms, gemm m=32 %.3f ms, gemm_a_bt "
        "%.3f ms, gemv %.1f us, single-infer %.1f /s (simd single-sample "
        "speedup %.2fx)\n",
        avx2_timing.gemm_seconds * 1e3, avx2_timing.gemm32_seconds * 1e3,
        avx2_timing.gemm_a_bt_seconds * 1e3,
        avx2_timing.gemv_seconds * 1e6, avx2_timing.infer_rps,
        simd_single_speedup);
  else
    std::printf("              avx2   unsupported on this host (null)\n");

  // Per-service routed serving: batches where every request targets one
  // specialised head, exercising the router + shared frozen-kernel
  // pooling path end to end. Capped at 4 services to bound bench time.
  std::string routed_json = "{";
  {
    const auto services = model.specialized_services();
    constexpr std::size_t kRouted = 128;
    bool first = true;
    for (std::size_t i = 0; i < services.size() && i < 4; ++i) {
      auto routed = batch_requests(pipeline, kRouted);
      for (auto& request : routed) request.service = services[i];
      batcher.run(routed);  // warm-up
      const auto t0 = clock::now();
      auto out_routed = batcher.run(routed);
      benchmark::DoNotOptimize(out_routed.data());
      const double rps =
          static_cast<double>(kRouted) /
          std::chrono::duration<double>(clock::now() - t0).count();
      if (!first) routed_json += ',';
      first = false;
      routed_json += '"' + std::to_string(services[i]) + "\":";
      char rbuf[32];
      std::snprintf(rbuf, sizeof rbuf, "%.6g", rps);
      routed_json += rbuf;
      std::printf("routed batch-%zu rps (service %zu head): %.1f /s\n",
                  kRouted, services[i], rps);
    }
  }
  routed_json += '}';

  // Recall@1 over the pipeline's faulty test samples, through the batched
  // engine the timings above measured.
  const double fp32_recall1 = [&] {
    const auto faulty = pipeline.faulty_test_indices();
    const auto& test = pipeline.split().test.samples;
    std::vector<core::DiagnoseRequest> eval_requests;
    std::vector<std::size_t> truths;
    eval_requests.reserve(faulty.size());
    for (const std::size_t idx : faulty) {
      core::DiagnoseRequest request;
      request.features = test[idx].features;
      request.service = test[idx].service;
      eval_requests.push_back(std::move(request));
      truths.push_back(test[idx].primary_cause);
    }
    const auto responses = batcher.run(eval_requests);
    std::vector<std::vector<std::size_t>> rankings;
    rankings.reserve(responses.size());
    for (const auto& response : responses)
      rankings.push_back(response.diagnosis.ranking);
    return eval::recall_at_k(rankings, truths, 1);
  }();
  std::printf("recall@1 %.3f\n", fp32_recall1);

  const double wall_seconds =
      std::chrono::duration<double>(clock::now() - start).count();
  const char* out_dir = std::getenv("DIAGNET_BENCH_OUT");
  const std::string path = (out_dir && *out_dir ? std::string(out_dir) + "/"
                                                : std::string()) +
                           "BENCH_micro_kernels.json";
  std::ofstream out(path);
  if (!out) return;
  // Null-aware emission: unsupported tiers and not-meaningful ratios are
  // JSON null, so the regression guard can skip them instead of
  // comparing garbage across hardware.
  const auto avx2_field = [&](double v) {
    if (!have_avx2) return std::string("null");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  out << "{\n"
      << "  \"bench\": \"micro_kernels\",\n"
      << "  \"metadata\": {" << obs::run_metadata_json() << "},\n"
      << "  \"kernel_tier\": \"" << tensor::active_kernel_tier_name()
      << "\",\n"
      << "  \"cpu_features\": \"" << tensor::cpu_features_string()
      << "\",\n"
      << "  \"wall_seconds\": " << wall_seconds << ",\n"
      << "  \"peak_rss_kib\": " << obs::peak_rss_kib() << ",\n"
      << "  \"seq_samples_per_s\": " << seq_rate << ",\n"
      << "  \"batch256_samples_per_s\": " << batch_rate << ",\n"
      << "  \"batch_speedup\": " << speedup << ",\n"
      << "  \"serve_single_rps\": " << serve_single_rps << ",\n"
      << "  \"serve_roundtrip_rps\": " << serve_roundtrip_rps << ",\n"
      << "  \"serve_batch64_rps\": " << serve_batch64_rps << ",\n"
      << "  \"serve_speedup\": " << serve_speedup << ",\n"
      << "  \"gemm_seconds_scalar\": " << scalar_timing.gemm_seconds
      << ",\n"
      << "  \"gemm_seconds_avx2\": " << avx2_field(avx2_timing.gemm_seconds)
      << ",\n"
      << "  \"gemm32_seconds_scalar\": " << scalar_timing.gemm32_seconds
      << ",\n"
      << "  \"gemm32_seconds_avx2\": "
      << avx2_field(avx2_timing.gemm32_seconds) << ",\n"
      << "  \"gemm_a_bt_seconds_scalar\": "
      << scalar_timing.gemm_a_bt_seconds << ",\n"
      << "  \"gemm_a_bt_seconds_avx2\": "
      << avx2_field(avx2_timing.gemm_a_bt_seconds) << ",\n"
      << "  \"gemv_seconds_scalar\": " << scalar_timing.gemv_seconds
      << ",\n"
      << "  \"gemv_seconds_avx2\": " << avx2_field(avx2_timing.gemv_seconds)
      << ",\n"
      << "  \"single_infer_rps_scalar\": " << scalar_timing.infer_rps
      << ",\n"
      << "  \"single_infer_rps_simd\": " << avx2_field(avx2_timing.infer_rps)
      << ",\n"
      << "  \"simd_single_speedup\": " << avx2_field(simd_single_speedup)
      << ",\n"
      << "  \"routed_rps_by_service\": " << routed_json << ",\n"
      << "  \"fp32_recall_at1\": " << fp32_recall1 << ",\n"
      << "  \"train_epoch_1t_seconds\": " << epoch_1t << ",\n"
      << "  \"train_epoch_4t_seconds\": " << epoch_4t << ",\n"
      << "  \"train_speedup_4t\": ";
  if (train_speedup_meaningful)
    out << train_speedup;
  else
    out << "null";
  out << ",\n"
      << "  \"hardware_threads\": " << hardware_threads << "\n"
      << "}\n";
}

}  // namespace

// Expanded BENCHMARK_MAIN() so the telemetry environment (DIAGNET_TRACE /
// DIAGNET_METRICS / DIAGNET_TELEMETRY) is honoured before any benchmark
// runs. Telemetry stays off unless requested, so the measured kernels are
// undisturbed by default.
int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  diagnet::obs::init_from_env();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  write_speedup_report(start);
  benchmark::Shutdown();
  return 0;
}
