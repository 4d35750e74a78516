// The three workloads and every probe they run. All calls into the DiagNet
// library live in this file, and they use only the entry points the
// one-compute-path refactor keeps: const workspace forwards, the batched
// engine, the shared-pooling attention path, and the public serve, data,
// forest and netsim APIs. The member-cache layer API (Layer,
// forward_from_pooled, backward_inputs_from_pooled, CoarseNet::clone) is
// never called.
#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/attention.h"
#include "core/batch_diagnoser.h"
#include "core/diagnet.h"
#include "core/ensemble.h"
#include "core/registry.h"
#include "core/score_weighting.h"
#include "data/campaign_stream.h"
#include "data/encoding.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "forest/extensible_forest.h"
#include "netsim/simulator.h"
#include "obs/obs.h"
#include "serve/loadgen.h"
#include "serve/reactor.h"
#include "serve/service.h"
#include "serve/wire.h"

namespace perfbench {

namespace {

using namespace diagnet;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed workload parameters. Changing any of them changes the benchmark.

// setup_s is the median of at least kSetupRepeats set-ups; a cheap set-up
// repeats until kSetupSeconds have passed, at most kSetupMaxRepeats times.
constexpr int kSetupRepeats = 3;
constexpr int kSetupMaxRepeats = 100;
constexpr double kSetupSeconds = 0.5;
constexpr std::size_t kClassicSamples = 15000;
constexpr std::size_t kServeEpochs = 1;     // model the service is built on
constexpr std::size_t kTrainEpochs = 1;     // train-eval, general and heads
constexpr std::uint64_t kSimClients = 500000;

constexpr double kLowRps = 1000.0;
constexpr double kHighRps = 2500.0;
constexpr double kSloP99Ms = 50.0;
constexpr double kMinAchievedRatio = 0.98;
// Rate ladder: rung i offers kLadderBase * kLadderStep^i req/s.
constexpr double kLadderBase = 1000.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 64;
constexpr int kLadderStart = 28;  // ~3920 req/s
constexpr int kStaircaseWindows = 12;  // each a tenth of --seconds
constexpr std::size_t kLoadgenConnections = 4;
constexpr std::size_t kLoadgenThreads = 1;
constexpr std::size_t kRequestPool = 256;
constexpr std::size_t kExactnessChecks = 64;
constexpr std::size_t kEngineBatch = 32;
constexpr std::size_t kRequestGroup = 64;
constexpr int kServeRounds = 8;
// The end-to-end passes rotate over this many separately loaded copies of
// the served bundle: interleaved passes over two copies of one model ran up
// to a quarter apart, with where the allocator put their weights.
constexpr std::size_t kReplicas = 8;
constexpr int kOfflinePasses = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds of the whole process, every thread together, and of the
/// calling thread. The end-to-end figures count CPU time, not wall time: on
/// a shared host other tenants take time slices from the benchmark, and
/// wall time then measures the scheduler, stretched by a third or more for
/// minutes at a time, while the kernel keeps the time a task or its virtual
/// CPU was not running out of its CPU time.
double process_cpu_seconds() {
  return cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}
double thread_cpu_seconds() { return cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

/// Run `fn` inside a span and return its wall time in seconds.
template <typename Fn>
double timed(Tracer& tracer, const char* name, Fn&& fn, std::uint64_t op = 0) {
  const auto scope = tracer.span(name, op);
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

bool more_setups(const std::vector<double>& times) {
  double total = 0.0;
  for (const double t : times) total += t;
  const int n = static_cast<int>(times.size());
  return n < kSetupRepeats || (n < kSetupMaxRepeats && total < kSetupSeconds);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Hand freed heap back to the OS between repetitions, so peak RSS reflects
/// one repetition and not how fragmented earlier ones left the arenas.
void release_heap() { malloc_trim(0); }

/// The least disturbed of a unit the run repeats. The end-to-end figures
/// take the median repetition instead, which moved less from run to run.
double best(const std::vector<double>& v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  return higher_is_better ? *std::max_element(v.begin(), v.end())
                          : *std::min_element(v.begin(), v.end());
}

template <typename Cycle>
std::vector<double> field_of(const std::vector<Cycle>& cycles,
                             double Cycle::*field) {
  std::vector<double> v;
  for (const Cycle& c : cycles) v.push_back(c.*field);
  return v;
}

/// Percentage by which `traced` is worse than `untraced`.
double overhead_pct(double untraced, double traced, bool higher_is_better) {
  if (untraced <= 0.0) return 0.0;
  return (higher_is_better ? untraced - traced : traced - untraced) /
         untraced * 100.0;
}

std::string path_join(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) bytes += entry.file_size();
  return bytes;
}

void require(const util::Status& status, const char* what) {
  if (!status.ok())
    throw std::runtime_error(std::string(what) + ": " + status.message());
}

/// Simulator, feature space and the seeds every workload derives from
/// --seed, in the same way the CLI derives them from its --seed. Pinned in
/// place: the simulator is initialised straight from its factory (a moved
/// Simulator would keep pointing into its old self) and the feature space
/// refers to the simulator's topology.
struct World {
  netsim::Simulator sim;
  data::FeatureSpace fs;
  std::uint64_t seed = 0;

  explicit World(std::uint64_t s)
      : sim(netsim::Simulator::make_default(s)), fs(sim.topology()), seed(s) {
    sim.calibrate_qoe();
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  data::CampaignConfig classic_campaign() const {
    data::CampaignConfig config;
    config.seed = seed ^ 0xca3fULL;
    config.nominal_samples = kClassicSamples / 3;
    config.fault_samples = kClassicSamples - config.nominal_samples;
    return config;
  }

  data::SplitConfig split_config() const {
    data::SplitConfig config;
    config.seed = seed ^ 0x5b11ULL;
    return config;
  }

  /// Fixed epoch count: patience >= cap, so early stopping cannot fire and
  /// every commit does the same number of epochs.
  core::DiagNetConfig model_config(std::size_t epochs) const {
    core::DiagNetConfig config = core::DiagNetConfig::defaults();
    config.seed = seed;
    config.trainer.max_epochs = epochs;
    config.trainer.patience = epochs;
    config.specialization.max_epochs = epochs;
    config.specialization.patience = epochs;
    return config;
  }
};

/// Services with enough training rows for a head, as `diagnet train` picks.
std::vector<std::size_t> head_services(const World& world,
                                       const data::Dataset& train) {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < world.sim.services().size(); ++s) {
    std::size_t count = 0;
    for (const data::Sample& sample : train.samples)
      count += sample.service == s ? 1 : 0;
    if (count > 50) out.push_back(s);
  }
  return out;
}

bool finite_history(const nn::TrainingHistory& history) {
  for (const nn::EpochStats& e : history.epochs)
    if (!std::isfinite(e.train_loss) || !std::isfinite(e.validation_loss))
      return false;
  return !history.epochs.empty();
}

bool same_diagnosis(const core::DiagnoseResponse& a,
                    const core::DiagnoseResponse& b) {
  return a.ok() && b.ok() && a.diagnosis.scores == b.diagnosis.scores &&
         a.diagnosis.ranking == b.diagnosis.ranking &&
         a.diagnosis.coarse_probs == b.diagnosis.coarse_probs;
}

// ---------------------------------------------------------------------------
// serve-open

/// The served stack: general model + per-service frozen-kernel heads behind
/// a ModelProvider, a DiagnosisService with `serve` defaults and an epoll
/// Reactor on an ephemeral loopback port, its loop on its own thread.
struct ServeEnv {
  explicit ServeEnv(std::uint64_t seed) : world(seed) {}
  ~ServeEnv() { shutdown(); }
  ServeEnv(const ServeEnv&) = delete;
  ServeEnv& operator=(const ServeEnv&) = delete;

  void shutdown() {
    stop.store(true);
    if (loop.joinable()) loop.join();
    if (service) service->stop();
    reactor.reset();
    service.reset();
  }

  World world;
  std::string bundle_path;
  std::size_t heads = 0;
  std::shared_ptr<serve::ModelProvider> provider;
  std::unique_ptr<serve::DiagnosisService> service;
  std::unique_ptr<serve::Reactor> reactor;
  std::atomic<bool> stop{false};
  std::atomic<std::uint16_t> port{0};
  util::Status loop_status;
  std::thread loop;  // declared after everything the loop uses
  std::vector<core::DiagnoseRequest> pool;  // faulty samples, all services
  std::vector<std::string> pool_lines;      // the same, on the wire
};

struct Rung {
  double target_rps = 0.0;
  double achieved_ratio = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t sent = 0, ok = 0;
  std::uint64_t rejected = 0, shed = 0, errors = 0;
  std::uint64_t refused = 0;  // of `rejected`, by the service's admission
  std::uint64_t completed = 0, batches = 0;
  bool queue_growth = false;

  bool meets_slo() const {
    return sent > 0 && ok == sent && rejected == 0 && shed == 0 &&
           errors == 0 && p99_ms <= kSloP99Ms &&
           achieved_ratio >= kMinAchievedRatio && !queue_growth;
  }
};

/// One open-loop rung: `rps` for `seconds`, 1 loadgen thread driving 4
/// connections, while a monitor samples the service's queue depth.
Rung run_rung(ServeEnv& env, double rps, double seconds, std::uint64_t seed) {
  serve::LoadgenConfig config;
  config.port = env.port.load();
  config.requests = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(rps * seconds)));
  config.target_rps = rps;
  config.concurrency = kLoadgenConnections;
  config.threads = kLoadgenThreads;
  config.seed = seed;
  config.pool = env.pool_lines;
  // The in-band statsz probe needs session hooks this stack does not wire.
  config.probe_statsz = false;

  const serve::DiagnosisService::Stats before = env.service->stats();
  std::atomic<bool> done{false};
  std::vector<double> depths;
  std::thread monitor([&] {
    while (!done.load()) {
      depths.push_back(static_cast<double>(env.service->queue_depth()));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const util::StatusOr<serve::LoadgenReport> report_or =
      serve::run_loadgen(config);
  done.store(true);
  monitor.join();
  require(report_or.status(), "loadgen");
  const serve::LoadgenReport& report = report_or.value();
  const serve::DiagnosisService::Stats after = env.service->stats();

  Rung rung;
  rung.target_rps = rps;
  // Rate over the send schedule: the loadgen's wall time also covers the
  // wait for the last responses, which the median latency stands for.
  const double send_span =
      report.wall_seconds - report.latency_ms.percentile(0.50) / 1000.0;
  rung.achieved_ratio =
      send_span > 0.0 ? static_cast<double>(report.sent) / send_span / rps
                      : 0.0;
  rung.p50_ms = report.latency_ms.percentile(0.50);
  rung.p99_ms = report.latency_ms.percentile(0.99);
  rung.sent = report.sent;
  rung.ok = report.ok;
  rung.errors = report.errors;
  rung.refused = after.rejected - before.rejected;
  rung.rejected = report.rejected + rung.refused;
  rung.shed = after.shed - before.shed;
  rung.completed = after.completed - before.completed;
  rung.batches = after.batches - before.batches;
  // A backlog is growing when the last third of the rung queues more than
  // one full batch beyond the first third.
  if (depths.size() >= 6) {
    const std::size_t third = depths.size() / 3;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
      first += depths[i];
      last += depths[depths.size() - 1 - i];
    }
    rung.queue_growth =
        (last - first) / static_cast<double>(third) >
        static_cast<double>(env.service->config().max_batch);
  }
  return rung;
}

std::unique_ptr<ServeEnv> setup_serve(const RunOptions& options, int repeat,
                                      Tracer& tracer) {
  const auto scope = tracer.span("setup.serve");
  auto env = std::make_unique<ServeEnv>(options.seed);
  const World& world = env->world;
  const data::FeatureSpace& fs = world.fs;

  const data::Dataset campaign =
      data::generate_campaign(world.sim, fs, world.classic_campaign());
  const data::DataSplit split =
      data::make_split(campaign, fs, world.split_config());
  core::DiagNetModel model(fs, world.model_config(kServeEpochs));
  model.train_general(split.train);
  for (const std::size_t s : head_services(world, split.train))
    model.specialize(s, split.train);
  env->heads = model.specialized_services().size();

  env->bundle_path =
      path_join(options.work_dir, "serve-" + std::to_string(repeat) + ".bin");
  require(core::try_save_model_file(model, env->bundle_path), "save bundle");
  auto provider_or = serve::ModelProvider::from_file(env->bundle_path, fs);
  require(provider_or.status(), "load bundle");
  env->provider = std::move(provider_or).value();

  // `diagnet serve` defaults, with metrics on as cmd_serve forces them.
  env->service = std::make_unique<serve::DiagnosisService>(
      env->provider, serve::ServiceConfig{});
  obs::set_enabled(true);
  env->reactor = std::make_unique<serve::Reactor>(*env->service, fs,
                                                  serve::ReactorConfig{});
  require(env->reactor->listen(0, &env->port), "listen");
  ServeEnv* raw = env.get();
  env->loop = std::thread(
      [raw] { raw->loop_status = raw->reactor->run(raw->stop); });

  // The request pool: faulty samples, the same number from every service
  // and interleaved, so every seed offers the service mix.
  std::vector<std::vector<const data::Sample*>> by_service(
      world.sim.services().size());
  for (const data::Sample& sample : campaign.samples)
    if (sample.is_faulty()) by_service[sample.service].push_back(&sample);
  for (std::size_t i = 0; env->pool.size() < kRequestPool; ++i) {
    const auto& samples = by_service[i % by_service.size()];
    if (samples.empty())
      throw std::runtime_error("a service has no faulty sample");
    const data::Sample& sample =
        *samples[(i / by_service.size()) % samples.size()];
    core::DiagnoseRequest request;
    request.features = sample.features;
    request.service = sample.service;
    serve::WireRequest wire;
    wire.id = env->pool.size() + 1;
    wire.request = request;
    env->pool_lines.push_back(serve::format_request(wire));
    env->pool.push_back(std::move(request));
  }

  // Warm-up rung: connections, caches and the dispatcher's first batches.
  run_rung(*env, kLowRps, 0.5, options.seed ^ 0x3a11ULL);
  return env;
}

struct ServeMeasure {
  std::vector<Rung> low;  // four windows spread over the phase
  Rung high;
  double low_p50_ms = 0.0;  // best window
  double low_p99_ms = 0.0;  // median window
  double engine_rps = 0.0;      // diagnoses per CPU-second, median pass
  double request_cpu_ms = 0.0;  // per single request, median group
  std::vector<Rung> ladder;  // staircase windows, traced runs only
  double max_rps_at_slo = 0.0;
  std::uint64_t attempted = 0, failed = 0;
};

/// Separately loaded copies of the served bundle, each also served by a
/// DiagnosisService of its own with `serve` defaults (no listener).
struct Replicas {
  std::vector<std::shared_ptr<core::DiagNetModel>> models;
  std::vector<std::unique_ptr<serve::DiagnosisService>> services;
};

/// Passes of the batch engine alone, for `seconds`; each pass appends its
/// CPU seconds to `pass_cpu_s`. One pass is BatchDiagnoser::run over the
/// whole request pool at batch_size kEngineBatch on one worker, the
/// service's default, which runs inline on this thread; pass i runs on
/// replica i mod kReplicas. The engine groups the pool by serving head, so
/// each batch is one head's kEngineBatch rows. That size stays below the
/// one at which the GEMMs fan out over the process-wide thread pool, so the
/// figure follows the model's cost and not where the scheduler put the
/// pool's threads.
void engine_passes_into(const ServeEnv& env, const Replicas& replicas,
                        double seconds, std::vector<double>& pass_cpu_s,
                        std::uint64_t& attempted, std::uint64_t& failed) {
  util::ThreadPool one_worker(1);
  core::BatchDiagnoserConfig config;
  config.batch_size = kEngineBatch;
  config.pool = &one_worker;
  std::vector<core::BatchDiagnoser> batchers;
  for (const auto& model : replicas.models)
    batchers.emplace_back(*model, config);
  const auto t0 = Clock::now();
  do {
    const core::BatchDiagnoser& batcher =
        batchers[pass_cpu_s.size() % batchers.size()];
    const double c0 = thread_cpu_seconds();
    for (const core::DiagnoseResponse& r : batcher.run(env.pool))
      if (!r.ok()) ++failed;
    pass_cpu_s.push_back(thread_cpu_seconds() - c0);
    attempted += env.pool.size();
  } while (seconds_since(t0) < seconds);
}

/// Requests one at a time through DiagnosisService::submit, each waited for
/// before the next is sent, for `seconds`; every group of kRequestGroup
/// goes to the next replica's service and appends the process CPU
/// milliseconds it cost per request to `request_cpu_ms`. That is the
/// service's whole cost of a request — queue, batcher, dispatcher, model
/// and completion — without the batching window it waits out. Nothing else
/// runs meanwhile: the load generator is stopped and the reactor only wakes
/// for its timer wheel.
void request_passes_into(const ServeEnv& env, const Replicas& replicas,
                         double seconds, std::vector<double>& request_cpu_ms,
                         std::uint64_t& attempted, std::uint64_t& failed) {
  const auto t0 = Clock::now();
  std::size_t next = 0;
  do {
    serve::DiagnosisService& service =
        *replicas.services[request_cpu_ms.size() % replicas.services.size()];
    const double c0 = process_cpu_seconds();
    for (std::size_t i = 0; i < kRequestGroup; ++i) {
      const core::DiagnoseResponse response =
          service.submit(env.pool[next++ % env.pool.size()]).get();
      if (!response.ok()) ++failed;
    }
    request_cpu_ms.push_back(1000.0 * (process_cpu_seconds() - c0) /
                             static_cast<double>(kRequestGroup));
    attempted += kRequestGroup;
  } while (seconds_since(t0) < seconds);
}

/// Capacity at the SLO by an up-down staircase on the ladder: after a
/// window that meets every condition the next window offers one rung more,
/// after one that misses any it offers two rungs less, so the staircase
/// settles on the rate where two windows in three pass. The estimate is
/// the geometric mean of the rates offered from the first reversal on.
/// A one-shot search for the highest passing rung is not repeatable here:
/// between the single-thread capacity and the rate where large batches fan
/// out over the thread pool, the service flips between keeping up and
/// backing up, and a single window lands anywhere in that band.
double staircase(ServeEnv& env, double window_seconds, std::uint64_t seed,
                 Tracer& tracer, std::vector<Rung>& probed) {
  int i = kLadderStart;
  int last_step = 0;
  bool reversed = false;
  double log_sum = 0.0;
  int counted = 0;
  for (int w = 0; w < kStaircaseWindows; ++w) {
    const auto scope = tracer.span("serve.staircase.window", i);
    probed.push_back(run_rung(env, kLadderBase * std::pow(kLadderStep, i),
                              window_seconds, seed + 17 * w));
    const int step = probed.back().meets_slo() ? 1 : -2;
    if (last_step != 0 && (step > 0) != (last_step > 0)) reversed = true;
    if (reversed) {
      log_sum += i;
      ++counted;
    }
    last_step = step;
    i = std::clamp(i + step, 0, kLadderRungs - 1);
  }
  const double index = counted > 0 ? log_sum / counted : i;
  return kLadderBase * std::pow(kLadderStep, index);
}

ServeMeasure measure_serve(ServeEnv& env, const Replicas& replicas,
                           const RunOptions& options, bool traced,
                           Tracer& tracer) {
  const auto scope = tracer.span("serve.measure");
  ServeMeasure m;
  const double s = options.seconds;
  // Engine passes and single requests, the end-to-end figures, take most of
  // the measured phase in kServeRounds short alternating slices, with the
  // TCP rungs between them: the host's speed wanders over seconds, and
  // short slices spread over the whole run average it best.
  std::vector<double> engine_cpu_s, request_cpu_ms;
  for (int round = 0; round < kServeRounds; ++round) {
    if (round % 2 == 0) {
      const auto rung_scope = tracer.span("serve.rung.low");
      m.low.push_back(run_rung(env, kLowRps, 0.03 * s,
                               options.seed ^ (0x10ULL + m.low.size())));
    }
    if (round == kServeRounds / 2) {
      const auto rung_scope = tracer.span("serve.rung.high");
      m.high = run_rung(env, kHighRps, 0.1 * s, options.seed ^ 0x25ULL);
    }
    {
      const auto engine_scope = tracer.span("core.batch.engine");
      engine_passes_into(env, replicas, 0.06 * s, engine_cpu_s, m.attempted,
                         m.failed);
    }
    {
      const auto request_scope = tracer.span("serve.request.single");
      request_passes_into(env, replicas, 0.035 * s, request_cpu_ms,
                          m.attempted, m.failed);
    }
  }
  m.engine_rps = static_cast<double>(env.pool.size()) / median(engine_cpu_s);
  m.request_cpu_ms = median(request_cpu_ms);
  std::vector<double> p50s, p99s;
  for (const Rung& rung : m.low) {
    p50s.push_back(rung.p50_ms);
    p99s.push_back(rung.p99_ms);
  }
  m.low_p50_ms = best(p50s, /*higher_is_better=*/false);
  m.low_p99_ms = median(p99s);
  if (traced)
    m.max_rps_at_slo = staircase(env, 0.1 * s, options.seed ^ 0x1addULL,
                                 tracer, m.ladder);
  // Every request must come back ok over TCP, or refused by the service's
  // admission bound: these rates sit below the knee, but a host that slows
  // down by half for a few seconds moves the knee below them, and a full
  // queue refusing work is the service doing its job.
  std::vector<const Rung*> required = {&m.high};
  for (const Rung& rung : m.low) required.push_back(&rung);
  for (const Rung* rung : required) {
    m.attempted += rung->sent;
    m.failed += rung->sent - std::min(rung->sent, rung->ok + rung->refused);
    if (rung->sent != rung->ok)
      std::fprintf(stderr,
                   "perfbench: %.0f req/s rung: sent %llu ok %llu refused "
                   "%llu errors %llu\n",
                   rung->target_rps, static_cast<unsigned long long>(rung->sent),
                   static_cast<unsigned long long>(rung->ok),
                   static_cast<unsigned long long>(rung->refused),
                   static_cast<unsigned long long>(rung->errors));
  }
  for (const Rung& rung : m.ladder) {
    m.attempted += rung.sent;
    std::fprintf(stderr,
                 "perfbench: window %.0f req/s p50 %.2f ms p99 %.2f ms "
                 "achieved %.3f rejected %llu growth %d -> %s\n",
                 rung.target_rps, rung.p50_ms, rung.p99_ms,
                 rung.achieved_ratio,
                 static_cast<unsigned long long>(rung.rejected),
                 rung.queue_growth ? 1 : 0, rung.meets_slo() ? "pass" : "fail");
  }
  return m;
}

/// K requests through DiagnosisService::submit must be bit-identical to
/// BatchDiagnoser::run over a second copy of the served bundle.
std::uint64_t check_exactness(ServeEnv& env, core::DiagNetModel& copy) {
  const std::size_t k = std::min(kExactnessChecks, env.pool.size());
  std::vector<std::future<core::DiagnoseResponse>> futures;
  for (std::size_t i = 0; i < k; ++i)
    futures.push_back(env.service->submit(env.pool[i]));
  const std::vector<core::DiagnoseRequest> requests(env.pool.begin(),
                                                    env.pool.begin() + k);
  const std::vector<core::DiagnoseResponse> offline =
      core::BatchDiagnoser(copy).run(requests);
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < k; ++i)
    if (!same_diagnosis(futures[i].get(), offline[i])) ++mismatches;
  return mismatches;
}

/// In-process replay of an open-loop schedule straight into
/// DiagnosisService::submit: the service's share of a request's latency,
/// and each response's RequestTrace.
struct Replay {
  std::vector<double> service_ms, queue_ms, inference_ms, write_back_ms;
  double inference_us_per_row = 0.0;
  std::uint64_t failed = 0;
};

Replay replay_in_process(ServeEnv& env, double rps, double seconds,
                         std::uint64_t seed) {
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(rps * seconds)));
  Replay r;
  r.service_ms.assign(n, 0.0);
  r.queue_ms.assign(n, 0.0);
  r.inference_ms.assign(n, 0.0);
  r.write_back_ms.assign(n, 0.0);
  std::vector<double> inference_share(n, 0.0);
  std::vector<char> ok(n, 0);
  std::atomic<std::size_t> done{0};

  std::uint64_t state = seed | 1;
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t j = 0; j < n; ++j) {
    const auto slot =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(j) /
                                                  rps));
    std::this_thread::sleep_until(slot);
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const core::DiagnoseRequest& request = env.pool[state % env.pool.size()];
    env.service->submit(
        request, 0.0, [&, j, slot](core::DiagnoseResponse response) {
          const core::RequestTrace& t = response.trace;
          r.service_ms[j] =
              std::chrono::duration<double, std::milli>(Clock::now() - slot)
                  .count();
          r.queue_ms[j] = t.queue_us / 1000.0;
          r.inference_ms[j] = t.inference_us / 1000.0;
          r.write_back_ms[j] = t.write_back_us / 1000.0;
          inference_share[j] =
              t.batch_size > 0
                  ? t.inference_us / static_cast<double>(t.batch_size)
                  : 0.0;
          ok[j] = response.ok() ? 1 : 0;
          done.fetch_add(1, std::memory_order_release);
        });
  }
  // The service completes every submission and the callbacks write into
  // this frame, so wait for all of them; run.py bounds the whole run.
  while (done.load(std::memory_order_acquire) < n)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  double share_sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    share_sum += inference_share[j];
    if (!ok[j]) ++r.failed;
  }
  r.inference_us_per_row = share_sum / static_cast<double>(n);
  return r;
}

/// Attention FLOPs and bytes per row, computed from the network's shapes
/// (not hardware counters). FLOPs count multiply-adds as 2, plus bias,
/// ReLU and pooling arithmetic; sort comparisons are not counted. Bytes
/// count fp64 weights read once per batch per head (forward and input
/// backward) spread over the batch's rows, plus every activation and its
/// gradient written and read once.
struct AttentionCost {
  double flop_per_row = 0.0;
  double weight_bytes = 0.0;      // FC stack of one head, read per pass
  double pool_weight_bytes = 0.0; // shared LandPooling kernel + bias
  double activation_bytes_per_row = 0.0;
};

AttentionCost attention_cost(const core::DiagNetModel& model) {
  const data::FeatureSpace& fs = model.feature_space();
  const nn::CoarseNetConfig& c = model.config().coarse;
  const double l = static_cast<double>(fs.landmark_count());
  const double k = static_cast<double>(fs.metrics_per_landmark());
  const double f = static_cast<double>(c.filters);
  const double ops = static_cast<double>(c.pool_ops.size());
  const double local = static_cast<double>(fs.local_count());
  std::vector<double> dims = {ops * f + local};
  for (const std::size_t h : c.hidden) dims.push_back(static_cast<double>(h));
  dims.push_back(static_cast<double>(c.classes));

  AttentionCost cost;
  // LandPooling: conv forward + input backward, pooling forward + routing.
  const double deciles = ops - 4.0;
  cost.flop_per_row += 2.0 * l * f * k + l * f;             // conv fwd
  cost.flop_per_row += f * (6.0 * l + 2.0 * deciles);       // pool fwd
  cost.flop_per_row += f * (3.0 * l + 2.0 * deciles);       // pool routing
  cost.flop_per_row += 2.0 * l * f * k;                     // conv bwd dx
  cost.pool_weight_bytes = 8.0 * (f * k + f);
  double activations = l * k + l + local + l * f + ops * f;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const double in = dims[i], out = dims[i + 1];
    cost.flop_per_row += 2.0 * in * out + 2.0 * out;  // fwd GEMM, bias, ReLU
    cost.flop_per_row += 2.0 * in * out + out;        // bwd dx GEMM, ReLU mask
    cost.weight_bytes += 8.0 * (in * out + out);
    activations += in + out;
  }
  cost.flop_per_row += 4.0 * dims.back();  // softmax + ideal-label gradient
  // Each activation written in the forward, read in the backward, and its
  // gradient written and read once.
  cost.activation_bytes_per_row = 8.0 * 4.0 * activations;
  return cost;
}

/// Offline replay of the request pool, at the batch size the service
/// formed at the high rate, through each stage's public entry point.
std::map<std::string, double> offline_probe(ServeEnv& env,
                                            core::DiagNetModel& model,
                                            std::size_t batch_rows,
                                            Tracer& tracer) {
  const auto scope = tracer.span("probe.offline");
  const data::FeatureSpace& fs = model.feature_space();
  const std::vector<bool> all_landmarks(fs.landmark_count(), true);
  const std::vector<bool> all_features(fs.total(), true);
  core::BatchDiagnoserConfig serial;
  serial.batch_size = batch_rows;
  util::ThreadPool one_thread(1);
  serial.pool = &one_thread;
  const core::BatchDiagnoser batcher(model, serial);
  const nn::CoarseNet& general = model.general_net();
  nn::CoarseWorkspace ws;
  general.init_workspace(ws);
  nn::LandPooling::PoolContext ctx;
  tensor::Matrix pooled;

  double batch_s = 0, encode_s = 0, attention_s = 0, score_s = 0;
  double fwd_s = 0, pool_fwd_s = 0, alg1_s = 0, forest_s = 0, forest_off_s = 0;
  double ensemble_s = 0, heads_sum = 0;
  std::uint64_t rows = 0, chunks = 0;

  for (int pass = 0; pass < kOfflinePasses; ++pass) {
    for (std::size_t begin = 0; begin < env.pool.size(); begin += batch_rows) {
      const std::uint64_t op = chunks++;
      // The chunk grouped by service in first-appearance order, the row
      // order the batched engine's shared-pooling union uses.
      std::vector<core::DiagnoseRequest> chunk;
      std::vector<core::PooledGroup> groups;
      std::vector<std::size_t> order;
      const std::size_t end = std::min(env.pool.size(), begin + batch_rows);
      for (std::size_t i = begin; i < end; ++i) order.push_back(i);
      std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
        return env.pool[a].service < env.pool[b].service;
      });
      for (const std::size_t i : order) {
        nn::CoarseNet* net = &model.service_net(env.pool[i].service);
        if (groups.empty() || groups.back().net != net)
          groups.push_back({net, {}});
        groups.back().rows.push_back(chunk.size());
        chunk.push_back(env.pool[i]);
      }
      heads_sum += static_cast<double>(groups.size());
      rows += chunk.size();
      std::vector<const std::vector<double>*> raw;
      for (const auto& request : chunk) raw.push_back(&request.features);

      batch_s += timed(tracer, "core.batch", [&] { batcher.run(chunk); }, op);
      nn::LandBatch batch;
      encode_s += timed(tracer, "data.encode", [&] {
        batch = data::encode_batch(raw, fs, model.normalizer(), all_landmarks);
      }, op);
      std::vector<core::AttentionResult> attention;
      attention_s += timed(tracer, "nn.attention", [&] {
        attention = core::compute_attention_shared_pooling(groups, batch, fs);
      }, op);
      score_s += timed(tracer, "core.score", [&] {
        for (std::size_t r = 0; r < chunk.size(); ++r)
          model.complete_diagnosis(attention[r], chunk[r].features,
                                   all_landmarks);
      }, op);
      fwd_s += timed(tracer, "nn.fwd", [&] { general.forward(batch, ws); }, op);
      pool_fwd_s += timed(tracer, "nn.pool_fwd", [&] {
        general.pooling().forward(batch.land, batch.mask, ctx, pooled);
      }, op);

      // Algorithm 1, forest and ensemble as separate calls: the parts of
      // complete_diagnosis, whose remainder is core.score.unattributed.
      std::vector<std::vector<double>> tuned(chunk.size()), alpha(chunk.size());
      alg1_s += timed(tracer, "core.alg1", [&] {
        for (std::size_t r = 0; r < chunk.size(); ++r)
          tuned[r] = core::weight_scores(attention[r].gamma,
                                         attention[r].coarse_probs,
                                         attention[r].coarse_argmax, fs);
      }, op);
      const auto forest_pass = [&] {
        for (std::size_t r = 0; r < chunk.size(); ++r)
          alpha[r] = model.auxiliary().score_causes(data::encode_flat_sample(
              chunk[r].features, fs, model.normalizer(), all_features));
      };
      forest_s += timed(tracer, "forest.score", forest_pass, op);
      obs::set_enabled(false);
      forest_off_s += timed(tracer, "forest.score.obs_off", forest_pass, op);
      obs::set_enabled(true);
      ensemble_s += timed(tracer, "core.ensemble", [&] {
        for (std::size_t r = 0; r < chunk.size(); ++r)
          core::ensemble_average(tuned[r], alpha[r], model.unknown_features());
      }, op);
    }
  }

  const double per_row = 1e6 / static_cast<double>(rows);
  std::map<std::string, double> m;
  m["core.batch_us_per_row"] = batch_s * per_row;
  m["data.encode_us_per_row"] = encode_s * per_row;
  m["nn.attention_us_per_row"] = attention_s * per_row;
  m["core.score_us_per_row"] = score_s * per_row;
  m["core.batch.unattributed_us_per_row"] =
      (batch_s - encode_s - attention_s - score_s) * per_row;
  m["core.batch.attention_share"] = attention_s / batch_s;
  m["nn.fwd_us_per_row"] = fwd_s * per_row;
  m["nn.pool_fwd_us_per_row"] = pool_fwd_s * per_row;
  m["nn.fc_fwd_us_per_row"] = (fwd_s - pool_fwd_s) * per_row;
  m["nn.bwd_input_us_per_row"] = (attention_s - fwd_s) * per_row;
  m["core.alg1_us_per_row"] = alg1_s * per_row;
  m["forest.score_us_per_row"] = forest_s * per_row;
  m["forest.score_us_per_row.obs_off"] = forest_off_s * per_row;
  m["core.ensemble_us_per_row"] = ensemble_s * per_row;
  m["core.score.unattributed_us_per_row"] =
      (score_s - alg1_s - forest_s - ensemble_s) * per_row;

  const AttentionCost cost = attention_cost(model);
  const double heads_per_batch = heads_sum / static_cast<double>(chunks);
  const double rows_per_batch =
      static_cast<double>(rows) / static_cast<double>(chunks);
  const double bytes =
      cost.activation_bytes_per_row +
      2.0 * (cost.weight_bytes * heads_per_batch + cost.pool_weight_bytes) /
          rows_per_batch;
  m["tensor.attention_mflop_per_row"] = cost.flop_per_row / 1e6;
  m["tensor.attention_mbyte_per_row"] = bytes / 1e6;
  m["tensor.attention_gflop_per_s"] =
      cost.flop_per_row * static_cast<double>(rows) / attention_s / 1e9;
  return m;
}

}  // namespace

RunResult run_serve_open(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  std::vector<double> setup_times;
  std::unique_ptr<ServeEnv> env;
  for (int i = 0; more_setups(setup_times); ++i) {
    if (env) env->shutdown();
    env.reset();
    release_heap();
    const auto t0 = Clock::now();
    env = setup_serve(options, i, tracer);
    setup_times.push_back(seconds_since(t0));
  }
  if (env->heads != env->world.sim.services().size()) {
    std::fprintf(stderr, "perfbench: served model has %zu heads, want %zu\n",
                 env->heads, env->world.sim.services().size());
    result.correct = false;
  }

  Replicas replicas;
  while (replicas.models.size() < kReplicas) {
    auto copy_or = core::try_load_model_file(env->bundle_path, env->world.fs);
    require(copy_or.status(), "reload bundle");
    replicas.models.push_back(std::move(copy_or).value());
    replicas.services.push_back(std::make_unique<serve::DiagnosisService>(
        std::make_shared<serve::ModelProvider>(replicas.models.back()),
        serve::ServiceConfig{}));
  }
  core::DiagNetModel& copy = *replicas.models.front();

  ServeMeasure untraced;
  const bool traced = tracer.enabled();
  tracer.set_enabled(false);
  untraced = measure_serve(*env, replicas, options, false, tracer);
  tracer.set_enabled(traced);
  ServeMeasure m = untraced;
  if (traced) m = measure_serve(*env, replicas, options, true, tracer);

  result.attempted += untraced.attempted + (traced ? m.attempted : 0);
  result.failed += untraced.failed + (traced ? m.failed : 0);
  {
    const auto scope = tracer.span("check.exactness");
    const std::uint64_t mismatches = check_exactness(*env, copy);
    result.attempted += std::min(kExactnessChecks, env->pool.size());
    result.failed += mismatches;
  }

  result.metrics["setup_s"] = median(setup_times);
  result.metrics["throughput_per_cpu_s"] = untraced.engine_rps;
  result.metrics["latency_cpu_ms"] = untraced.request_cpu_ms;

  if (traced) {
    const double batch_rows =
        m.high.batches > 0 ? static_cast<double>(m.high.completed) /
                                 static_cast<double>(m.high.batches)
                           : 1.0;
    Replay on, off;
    {
      const auto scope = tracer.span("serve.replay.obs_on");
      on = replay_in_process(*env, kHighRps, 0.1 * options.seconds,
                             options.seed ^ 0x9e9eULL);
    }
    {
      const auto scope = tracer.span("serve.replay.obs_off");
      obs::set_enabled(false);
      off = replay_in_process(*env, kHighRps, 0.1 * options.seconds,
                              options.seed ^ 0x9e9eULL);
      obs::set_enabled(true);
    }
    result.attempted += on.service_ms.size() + off.service_ms.size();
    result.failed += on.failed + off.failed;

    auto& x = result.metrics;
    x["serve.p50_ms.low"] = m.low_p50_ms;
    x["serve.p99_ms.low"] = m.low_p99_ms;
    x["serve.p50_ms.high"] = m.high.p50_ms;
    x["serve.p99_ms.high"] = m.high.p99_ms;
    x["serve.max_rps_at_slo"] = m.max_rps_at_slo;
    x["loadgen.achieved_ratio"] = m.high.achieved_ratio;
    x["serve.batch_rows.mean"] = batch_rows;
    x["serve.service_ms.p50"] = median(on.service_ms);
    x["serve.transport_ms.p50"] = m.high.p50_ms - median(on.service_ms);
    x["serve.queue_ms.p50"] = median(on.queue_ms);
    x["serve.inference_ms.p50"] = median(on.inference_ms);
    x["serve.write_back_ms.p50"] = median(on.write_back_ms);
    x["obs.serve_cost_pct"] =
        overhead_pct(off.inference_us_per_row, on.inference_us_per_row,
                     /*higher_is_better=*/false);
    const auto rows =
        static_cast<std::size_t>(std::max(1.0, std::round(batch_rows)));
    for (const auto& [name, value] : offline_probe(*env, copy, rows, tracer))
      x[name] = value;
    x["obs.trace_overhead_pct"] =
        overhead_pct(untraced.engine_rps, m.engine_rps,
                     /*higher_is_better=*/true);
  }

  env->shutdown();
  if (!env->loop_status.ok()) {
    std::fprintf(stderr, "perfbench: reactor: %s\n",
                 env->loop_status.message().c_str());
    result.correct = false;
  }
  if (result.failed > 0) result.correct = false;
  return result;
}

// ---------------------------------------------------------------------------
// train-eval

namespace {

struct TrainCycle {
  double read_s = 0, split_s = 0, specialize_s = 0;
  double time_to_model_s = 0, s_per_epoch = 0, rows_per_s = 0;
  // The end-to-end figures: process CPU seconds of the read-to-heads
  // phase, and training rows per process CPU second of train_general
  // (encoding, forest fit and the network together).
  double time_to_model_cpu_s = 0, rows_per_cpu_s = 0;
  double nn_train_s = 0, recall_at_1 = 0;
  std::size_t train_rows = 0, epochs = 0;
  std::uint64_t attempted = 0, failed = 0;
  // Traced-run probes of train_general's stages.
  double encode_s = 0, fit_s = 0;
};

TrainCycle train_cycle(const World& world, const std::string& campaign_dir,
                       bool probe_stages, Tracer& tracer, std::uint64_t op) {
  const data::FeatureSpace& fs = world.fs;
  TrainCycle c;
  data::Dataset dataset;
  data::DataSplit split;
  core::DiagNetModel model(fs, world.model_config(kTrainEpochs));
  nn::TrainingHistory history;
  std::vector<nn::TrainingHistory> heads;
  double general_cpu_s = 0.0;
  {
    const auto scope = tracer.span("train.time_to_model", op);
    const auto t0 = Clock::now();
    const double c0 = process_cpu_seconds();
    c.read_s = timed(tracer, "data.read", [&] {
      auto dataset_or = data::try_read_campaign(campaign_dir, fs);
      require(dataset_or.status(), "read campaign");
      dataset = std::move(dataset_or).value();
    }, op);
    c.split_s = timed(tracer, "data.split", [&] {
      split = data::make_split(dataset, fs, world.split_config());
    }, op);
    timed(tracer, "core.train_general", [&] {
      const double g0 = process_cpu_seconds();
      history = model.train_general(split.train);
      general_cpu_s = process_cpu_seconds() - g0;
    }, op);
    c.specialize_s = timed(tracer, "core.specialize", [&] {
      for (const std::size_t s : head_services(world, split.train))
        heads.push_back(model.specialize(s, split.train));
    }, op);
    c.time_to_model_cpu_s = process_cpu_seconds() - c0;
    c.time_to_model_s = seconds_since(t0);
  }
  c.train_rows = split.train.size();
  c.epochs = history.epochs_run();
  c.nn_train_s = history.wall_seconds;
  c.s_per_epoch = history.wall_seconds / static_cast<double>(c.epochs);
  c.rows_per_s = static_cast<double>(c.train_rows) / c.s_per_epoch;
  c.rows_per_cpu_s = static_cast<double>(c.train_rows * c.epochs) /
                     general_cpu_s;

  // Losses finite and the epoch cap reached, by the general model and by
  // every head.
  c.attempted += 1 + heads.size();
  const auto check = [&](const nn::TrainingHistory& h, const char* what) {
    if (finite_history(h) && h.epochs_run() == kTrainEpochs) return;
    std::fprintf(stderr, "perfbench: %s ran %zu epoch(s), finite %d\n", what,
                 h.epochs_run(), finite_history(h) ? 1 : 0);
    ++c.failed;
  };
  check(history, "general model");
  for (const auto& h : heads) check(h, "head");
  if (heads.size() != world.sim.services().size()) {
    std::fprintf(stderr, "perfbench: trained %zu heads\n", heads.size());
    ++c.failed;
  }

  {
    const auto scope = tracer.span("core.evaluate", op);
    std::vector<core::DiagnoseRequest> requests;
    std::vector<std::size_t> truths;
    for (const data::Sample& sample : split.test.samples) {
      if (!sample.is_faulty()) continue;
      core::DiagnoseRequest request;
      request.features = sample.features;
      request.service = sample.service;
      requests.push_back(std::move(request));
      truths.push_back(sample.primary_cause);
    }
    const std::vector<core::DiagnoseResponse> responses =
        core::BatchDiagnoser(model).run(requests);
    std::vector<std::vector<std::size_t>> rankings;
    for (const core::DiagnoseResponse& response : responses) {
      if (!response.ok()) ++c.failed;
      rankings.push_back(response.diagnosis.ranking);
    }
    c.attempted += requests.size();
    c.recall_at_1 = eval::recall_at_k(rankings, truths, 1);
  }

  if (probe_stages) {
    // train_general's data and forest stages, re-run through their public
    // calls on the same split; nn.train_s is the trainer's own wall time.
    const auto scope = tracer.span("probe.train_general", op);
    tensor::Matrix flat;
    c.encode_s = timed(tracer, "data.encode", [&] {
      data::encode_coarse(split.train, fs, model.normalizer());
      flat = data::encode_flat(split.train, fs, model.normalizer());
    }, op);
    c.fit_s = timed(tracer, "forest.fit", [&] {
      forest::ExtensibleForest forest;
      forest.fit(flat,
                 data::cause_labels(split.train,
                                    forest::ExtensibleForest::kNominal),
                 fs.total(), model.config().auxiliary,
                 model.config().seed ^ 0xf0e5ULL);
    }, op);
  }
  return c;
}

/// Whole cycles until the measured phase has used its seconds.
std::vector<TrainCycle> train_cycles(const World& world,
                                     const std::string& dir,
                                     const RunOptions& options, bool probe,
                                     Tracer& tracer) {
  std::vector<TrainCycle> cycles;
  const auto t0 = Clock::now();
  do {
    cycles.push_back(train_cycle(world, dir, probe, tracer, cycles.size()));
    release_heap();
  } while (seconds_since(t0) < options.seconds);
  return cycles;
}

}  // namespace

RunResult run_train_eval(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  std::vector<double> setup_times;
  std::unique_ptr<World> world;
  std::string dir;
  for (int i = 0; more_setups(setup_times); ++i) {
    const auto scope = tracer.span("setup.train");
    const auto t0 = Clock::now();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    world = std::make_unique<World>(options.seed);
    dir = path_join(options.work_dir, "train-" + std::to_string(i) + ".chunks");
    data::ChunkedWriter writer(dir);
    auto stats = data::stream_campaign(world->sim, world->fs,
                                       world->classic_campaign(), writer);
    require(stats.status(), "write campaign");
    setup_times.push_back(seconds_since(t0));
    release_heap();
  }

  const bool traced = tracer.enabled();
  tracer.set_enabled(false);
  const std::vector<TrainCycle> untraced =
      train_cycles(*world, dir, options, false, tracer);
  tracer.set_enabled(traced);
  std::vector<TrainCycle> cycles = untraced;
  if (traced) cycles = train_cycles(*world, dir, options, true, tracer);

  const auto count = [&](const std::vector<TrainCycle>& set) {
    for (const TrainCycle& c : set) {
      result.attempted += c.attempted;
      result.failed += c.failed;
    }
  };
  count(untraced);
  if (traced) count(cycles);
  result.metrics["setup_s"] = median(setup_times);
  result.metrics["throughput_per_cpu_s"] =
      median(field_of(untraced, &TrainCycle::rows_per_cpu_s));
  result.metrics["latency_cpu_ms"] =
      1000.0 * median(field_of(untraced, &TrainCycle::time_to_model_cpu_s));

  if (traced) {
    auto& x = result.metrics;
    x["train.s_per_epoch"] = median(field_of(cycles, &TrainCycle::s_per_epoch));
    x["train.time_to_model_s"] =
        median(field_of(cycles, &TrainCycle::time_to_model_s));
    x["quality.recall_at_1"] =
        median(field_of(cycles, &TrainCycle::recall_at_1));
    x["data.read_s"] = median(field_of(cycles, &TrainCycle::read_s));
    x["data.split_s"] = median(field_of(cycles, &TrainCycle::split_s));
    x["data.encode_s"] = median(field_of(cycles, &TrainCycle::encode_s));
    x["forest.fit_s"] = median(field_of(cycles, &TrainCycle::fit_s));
    x["nn.train_s"] = median(field_of(cycles, &TrainCycle::nn_train_s));
    x["core.specialize_s"] =
        median(field_of(cycles, &TrainCycle::specialize_s));
    x["train.unattributed_s"] =
        x["train.time_to_model_s"] - x["data.read_s"] - x["data.split_s"] -
        x["data.encode_s"] - x["nn.train_s"] - x["forest.fit_s"] -
        x["core.specialize_s"];
    x["nn.train_rows_per_s"] =
        median(field_of(cycles, &TrainCycle::rows_per_s));
    x["nn.epochs"] = static_cast<double>(cycles.front().epochs);
    x["obs.trace_overhead_pct"] = overhead_pct(
        result.metrics["throughput_per_cpu_s"],
        median(field_of(cycles, &TrainCycle::rows_per_cpu_s)),
        /*higher_is_better=*/true);
  }
  std::filesystem::remove_all(dir);
  if (result.failed > 0) result.correct = false;
  return result;
}

// ---------------------------------------------------------------------------
// simulate-stream

namespace {

/// CampaignSink decorator that times every call into the wrapped sink: the
/// serial part of streaming generation.
class TimingSink final : public data::CampaignSink {
 public:
  explicit TimingSink(data::CampaignSink& inner) : inner_(inner) {}

  util::Status begin(const data::FeatureSpace& fs,
                     const std::vector<bool>& landmark_available) override {
    const auto t0 = Clock::now();
    util::Status s = inner_.begin(fs, landmark_available);
    seconds_ += seconds_since(t0);
    return s;
  }
  util::Status append(const data::Sample& sample) override {
    const auto t0 = Clock::now();
    util::Status s = inner_.append(sample);
    seconds_ += seconds_since(t0);
    return s;
  }
  util::Status finish() override {
    const auto t0 = Clock::now();
    util::Status s = inner_.finish();
    seconds_ += seconds_since(t0);
    return s;
  }

  double seconds() const { return seconds_; }

 private:
  data::CampaignSink& inner_;
  double seconds_ = 0.0;
};

struct SimCycle {
  double wall_s = 0, sink_s = 0, read_back_s = 0;
  double samples_per_s = 0, bytes_per_sample = 0;
  // The end-to-end figures: samples per process CPU second of streaming,
  // and process CPU seconds of the read-back.
  double samples_per_cpu_s = 0, read_back_cpu_s = 0;
  std::uint64_t samples = 0;
  std::uint64_t verified = 0;  // read back with their chunk checksums
};

SimCycle sim_cycle(const World& world, const std::string& dir, bool time_sink,
                   Tracer& tracer, std::uint64_t op) {
  data::CampaignConfig config;
  config.seed = world.seed ^ 0xca3fULL;
  config.clients = kSimClients;
  config.duration_hours = 24.0;
  config.mean_think_s = 86400.0;

  SimCycle c;
  std::filesystem::remove_all(dir);
  data::ChunkedWriter writer(dir);
  TimingSink timing(writer);
  data::CampaignSink& sink =
      time_sink ? static_cast<data::CampaignSink&>(timing) : writer;
  util::StatusOr<data::CampaignStats> stats = util::Status::internal("unset");
  const double c0 = process_cpu_seconds();
  c.wall_s = timed(tracer, "simulate.stream", [&] {
    stats = data::stream_campaign(world.sim, world.fs, config, sink);
  }, op);
  const double stream_cpu_s = process_cpu_seconds() - c0;
  require(stats.status(), "stream campaign");
  c.samples = stats.value().samples;
  c.sink_s = timing.seconds();
  c.samples_per_s = static_cast<double>(c.samples) / c.wall_s;
  c.samples_per_cpu_s = static_cast<double>(c.samples) / stream_cpu_s;
  c.bytes_per_sample = static_cast<double>(directory_bytes(dir)) /
                       static_cast<double>(c.samples);

  // Read back: every chunk checksum is verified before its samples are
  // served, and the count must match what the generator reported.
  std::uint64_t read = 0;
  util::Status status;
  const double r0 = process_cpu_seconds();
  c.read_back_s = timed(tracer, "data.read_back", [&] {
    auto reader_or = data::ChunkedReader::open(dir, world.fs);
    if (!reader_or.ok()) {
      status = reader_or.status();
      return;
    }
    data::ChunkedReader& reader = reader_or.value();
    data::Sample sample;
    bool eof = false;
    while (status.ok()) {
      status = reader.next(&sample, &eof);
      if (eof) break;
      if (status.ok()) ++read;
    }
  }, op);
  c.read_back_cpu_s = process_cpu_seconds() - r0;
  c.verified = status.ok() ? read : 0;
  if (c.verified != c.samples) {
    std::fprintf(stderr, "perfbench: read back %llu of %llu samples: %s\n",
                 static_cast<unsigned long long>(read),
                 static_cast<unsigned long long>(c.samples),
                 status.ok() ? "count mismatch" : status.message().c_str());
  }
  std::filesystem::remove_all(dir);
  return c;
}

std::vector<SimCycle> sim_cycles(const World& world, const std::string& dir,
                                 const RunOptions& options, bool time_sink,
                                 Tracer& tracer) {
  std::vector<SimCycle> cycles;
  const auto t0 = Clock::now();
  do {
    cycles.push_back(sim_cycle(world, dir, time_sink, tracer, cycles.size()));
    release_heap();
  } while (seconds_since(t0) < options.seconds);
  return cycles;
}

}  // namespace

RunResult run_simulate_stream(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  std::vector<double> setup_times;
  std::unique_ptr<World> world;
  for (int i = 0; more_setups(setup_times); ++i) {
    const auto scope = tracer.span("setup.simulate");
    const auto t0 = Clock::now();
    world = std::make_unique<World>(options.seed);
    setup_times.push_back(seconds_since(t0));
    release_heap();
  }
  const std::string dir = path_join(options.work_dir, "stream.chunks");

  const bool traced = tracer.enabled();
  tracer.set_enabled(false);
  const std::vector<SimCycle> untraced =
      sim_cycles(*world, dir, options, false, tracer);
  tracer.set_enabled(traced);
  std::vector<SimCycle> cycles = untraced;
  if (traced) cycles = sim_cycles(*world, dir, options, true, tracer);

  const auto count = [&](const std::vector<SimCycle>& set) {
    for (const SimCycle& c : set) {
      result.attempted += c.samples;
      result.failed += c.samples - std::min(c.samples, c.verified);
    }
  };
  count(untraced);
  if (traced) count(cycles);
  if (result.failed > 0) result.correct = false;
  result.metrics["setup_s"] = median(setup_times);
  result.metrics["throughput_per_cpu_s"] =
      median(field_of(untraced, &SimCycle::samples_per_cpu_s));
  result.metrics["latency_cpu_ms"] =
      1000.0 * median(field_of(untraced, &SimCycle::read_back_cpu_s));

  if (traced) {
    auto& x = result.metrics;
    x["simulate.samples_per_s"] =
        median(field_of(cycles, &SimCycle::samples_per_s));
    x["data.sink_s"] = median(field_of(cycles, &SimCycle::sink_s));
    const double wall = median(field_of(cycles, &SimCycle::wall_s));
    x["netsim.gen_s"] = wall - x["data.sink_s"];
    x["data.sink_share"] = x["data.sink_s"] / wall;
    x["data.bytes_per_sample"] =
        median(field_of(cycles, &SimCycle::bytes_per_sample));
    x["data.read_back_s"] = median(field_of(cycles, &SimCycle::read_back_s));
    x["obs.trace_overhead_pct"] = overhead_pct(
        result.metrics["throughput_per_cpu_s"],
        median(field_of(cycles, &SimCycle::samples_per_cpu_s)),
        /*higher_is_better=*/true);
  }
  return result;
}

}  // namespace perfbench
