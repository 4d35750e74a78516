// diagnet — command-line front end to the library.
//
//   diagnet simulate --samples 15000 --seed 42 --out campaign.csv
//       Generate a fault-injection measurement campaign against the
//       default 10-region deployment and store it as CSV.
//
//   diagnet train --campaign campaign.csv --out model.bin [--seed 42]
//       Apply the paper's hidden-landmark split, train the general model,
//       the per-service specialised heads and the auxiliary forest, and
//       save the trained bundle. With --freeze-kernel --service N
//       --from general.bin, instead fine-tune only service N's FC head on
//       the frozen LandPooling kernel and save it as a head bundle for
//       `serve --service-models`. --threads and --epochs apply to both.
//
//   diagnet diagnose --campaign campaign.csv --model model.bin [--sample N]
//       Load a trained model and print the ranked root causes for the
//       N-th faulty sample of the campaign.
//
//   diagnet evaluate --campaign campaign.csv --model model.bin
//       Recall@k of the model over every faulty sample in the campaign.
//
//   diagnet serve --model model.bin [--port P] [--watch]
//                 [--admin-port A] [--stats-interval-s S]
//       Long-lived diagnosis service: line-delimited JSON requests over
//       stdin/stdout (or loopback TCP with --port), dynamic micro-batching,
//       bounded-queue admission control, and atomic model hot-swap.
//       --admin-port serves GET /statsz (JSON) and /metrics (Prometheus);
//       any session also answers the in-band {"cmd":"statsz"} line.
//
//   diagnet mkrequests --campaign campaign.csv --out requests.jsonl
//       Turn campaign samples into serve request lines — the smoke-test
//       and load-generation companion to `diagnet serve`.
//
//   diagnet loadgen --port P --campaign campaign.csv [--rps R]
//       Drive a live serve TCP endpoint open- or closed-loop, measure
//       client-side tail latency, and write BENCH_serve.json.
//
//   diagnet selfcheck [--seed N] [--iters K] [--suite substr]
//                     [--corpus file]
//       Run the seeded property/differential/fuzz suites (src/testkit)
//       against this build.
//
// Every subcommand declares its flags as one util::ArgSpec table: typed
// values, uniform auto-generated `--help`, and unknown flags are hard
// errors. The stages exchange plain files, so a campaign can be generated
// once and shared — the same hand-off the paper's analysis service does
// with its clients.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_diagnoser.h"
#include "core/registry.h"
#include "data/campaign_stream.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "netsim/simulator.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "serve/loadgen.h"
#include "serve/reactor.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/statsz.h"
#include "serve/wire.h"
#include "tensor/dispatch.h"
#include "testkit/harness.h"
#include "util/argspec.h"
#include "util/table.h"

namespace {

using namespace diagnet;

/// Telemetry flags valid for every command (parsed before the per-command
/// flags and removed from the argument list):
///   --trace <file>      write a Perfetto/chrome://tracing JSON trace
///   --metrics <file>    write the metrics registry as JSON
///   --telemetry         print the telemetry summary table on exit
/// DIAGNET_TRACE / DIAGNET_METRICS / DIAGNET_TELEMETRY env vars are
/// honoured too; explicit flags win.
std::vector<std::string> setup_telemetry(int argc, char** argv) {
  std::vector<std::string> args;
  std::string trace_path, metrics_path;
  bool summary = false, any_flag = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" || arg == "--metrics") {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " requires a file argument\n";
        std::exit(2);
      }
      (arg == "--trace" ? trace_path : metrics_path) = argv[++i];
      any_flag = true;
    } else if (arg == "--telemetry") {
      summary = true;
      any_flag = true;
    } else {
      args.push_back(arg);
    }
  }
  obs::init_from_env();
  if (any_flag) obs::configure_exit_report(trace_path, metrics_path, summary);
  return args;
}

// ---------------------------------------------------------------------------
// simulate

const util::ArgSpec kSimulateArgs[] = {
    {"samples", util::ArgType::kUint, "15000",
     "campaign size (classic scenario mode)"},
    {"clients", util::ArgType::kUint, "0",
     "emulated concurrent clients; > 0 switches to the event-driven "
     "flow-level engine"},
    {"seed", util::ArgType::kUint, "42", "simulator RNG seed"},
    {"out", util::ArgType::kString, "campaign.csv", "output CSV path"},
    {"stream", util::ArgType::kFlag, "",
     "stream samples to a chunked on-disk campaign (--out-dir) instead of "
     "materializing a CSV"},
    {"out-dir", util::ArgType::kString, "campaign.chunks",
     "output directory for --stream"},
    {"duration-hours", util::ArgType::kDouble, "24",
     "simulated campaign span (default: 336 classic, 24 client mode)"},
    {"think-s", util::ArgType::kDouble, "86400",
     "mean think time between a client's visits (client mode)"},
    {"chunk-size", util::ArgType::kUint, "4096",
     "samples per checksummed chunk (--stream)"},
    {"threads", util::ArgType::kUint, "0",
     "generator worker threads (0 = all cores; output is bit-identical)"},
};

int cmd_simulate(const util::ParsedArgs& args) {
  const std::uint64_t seed = args.uint("seed");
  const std::uint64_t samples = args.uint("samples");
  const std::uint64_t clients = args.uint("clients");

  netsim::Simulator sim = netsim::Simulator::make_default(seed);
  sim.calibrate_qoe();
  data::FeatureSpace fs(sim.topology());

  data::CampaignConfig campaign;
  campaign.seed = seed ^ 0xca3fULL;
  campaign.threads = args.uint("threads");
  if (clients > 0) {
    campaign.clients = clients;
    campaign.duration_hours = 24.0;
    campaign.mean_think_s = args.num("think-s");
  } else {
    campaign.nominal_samples = samples / 3;
    campaign.fault_samples = samples - campaign.nominal_samples;
  }
  if (args.given("duration-hours"))
    campaign.duration_hours = args.num("duration-hours");

  if (util::Status s = campaign.validate(sim); !s.ok()) {
    std::cerr << "error: " << s.message() << '\n';
    return 1;
  }

  if (clients > 0)
    std::cout << "Simulating " << clients << " clients over "
              << campaign.duration_hours << " h (seed " << seed << ")...\n";
  else
    std::cout << "Simulating " << samples << " samples (seed " << seed
              << ")...\n";

  if (args.flag("stream")) {
    const std::string out_dir = args.str("out-dir");
    data::ChunkedWriterConfig writer_config;
    writer_config.chunk_size = args.uint("chunk-size");
    data::ChunkedWriter sink(out_dir, writer_config);
    const auto stats = data::stream_campaign(sim, fs, campaign, sink);
    if (!stats.ok()) {
      std::cerr << "error: " << stats.status().message() << '\n';
      return 1;
    }
    std::cout << "Streamed " << stats->samples << " samples ("
              << stats->faulty << " faulty) to " << out_dir << '\n';
    return 0;
  }

  const std::string out = args.str("out");
  data::DatasetSink sink;
  const auto stats = data::stream_campaign(sim, fs, campaign, sink);
  if (!stats.ok()) {
    std::cerr << "error: " << stats.status().message() << '\n';
    return 1;
  }
  const data::Dataset dataset = sink.take();
  if (util::Status s = data::try_write_csv_file(dataset, fs, out); !s.ok()) {
    std::cerr << "error: " << s.message() << '\n';
    return 1;
  }
  std::cout << "Wrote " << dataset.size() << " samples ("
            << dataset.count_faulty() << " faulty) to " << out << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// train

const util::ArgSpec kTrainArgs[] = {
    {"campaign", util::ArgType::kString, "campaign.csv", "input campaign (CSV file or chunked dir)"},
    {"out", util::ArgType::kString, "model.bin", "output model bundle"},
    {"seed", util::ArgType::kUint, "42", "training RNG seed"},
    {"threads", util::ArgType::kUint, "0",
     "minibatch worker threads (0 = all cores; result is bit-identical)"},
    {"epochs", util::ArgType::kUint, "0",
     "cap training epochs (0 = paper defaults)"},
    {"freeze-kernel", util::ArgType::kFlag, "",
     "fine-tune only one service's FC head on a frozen LandPooling kernel"},
    {"service", util::ArgType::kUint, "0",
     "service id to specialise (with --freeze-kernel)"},
    {"from", util::ArgType::kString, "",
     "existing general bundle to fine-tune from (with --freeze-kernel)"},
};

int cmd_train(const util::ParsedArgs& args) {
  const std::uint64_t seed = args.uint("seed");
  const std::string campaign_path = args.str("campaign");
  const std::string out = args.str("out");
  const std::uint64_t threads = args.uint("threads");
  const std::uint64_t epochs = args.uint("epochs");

  const netsim::Topology topology = netsim::default_topology();
  const data::FeatureSpace fs(topology);
  std::cout << "Loading " << campaign_path << "...\n";
  auto dataset_or = data::try_read_campaign(campaign_path, fs);
  if (!dataset_or.ok()) {
    std::cerr << "error: " << dataset_or.status().message() << '\n';
    return 1;
  }
  const data::Dataset dataset = std::move(dataset_or).value();

  data::SplitConfig split_config;
  split_config.seed = seed ^ 0x5b11ULL;
  const data::DataSplit split = data::make_split(dataset, fs, split_config);
  std::cout << "Hidden-landmark split: " << split.train.size()
            << " train / " << split.test.size() << " test samples.\n";

  // --threads and --epochs bound every specialisation, and --seed seeds it,
  // on both paths below.
  const auto budget = [&](nn::TrainerConfig trainer) {
    trainer.threads = threads;
    if (epochs > 0)
      trainer.max_epochs = std::min<std::size_t>(trainer.max_epochs, epochs);
    return trainer;
  };

  // --freeze-kernel: load an already-trained bundle and fine-tune only the
  // FC tail of one service's head on its shared representation (LandPooling
  // and first hidden layer). The saved bundle is a per-service head a
  // serving router can merge back onto the general model (`serve
  // --service-models id:path`); training never writes the representation,
  // so the head shares the general model's bit for bit, which is what lets
  // the router batch them together.
  if (args.flag("freeze-kernel")) {
    const std::string from = args.str("from");
    const std::size_t service = args.uint("service");
    if (from.empty()) {
      std::cerr << "error: --freeze-kernel requires --from <bundle>\n";
      return 1;
    }
    auto model_or = core::try_load_model_file(from, fs);
    if (!model_or.ok()) {
      std::cerr << "error: " << model_or.status().message() << '\n';
      return 1;
    }
    const auto model = std::move(model_or).value();
    model->set_specialization(budget(model->config().specialization), seed);
    std::cout << "Fine-tuning FC head for service " << service
              << " on frozen kernel from " << from << " (at most "
              << model->config().specialization.max_epochs
              << " epochs, threads " << threads << ")...\n";
    const auto history = model->specialize(service, split.train);
    std::cout << "  specialised: " << history.epochs_run()
              << " epoch(s) run, best at epoch " << (history.best_epoch + 1)
              << " (" << util::fmt(history.wall_seconds, 1) << " s)\n";
    if (util::Status s = core::try_save_model_file(*model, out); !s.ok()) {
      std::cerr << "error: " << s.message() << '\n';
      return 1;
    }
    std::cout << "Saved specialised bundle to " << out << '\n';
    return 0;
  }

  core::DiagNetConfig config = core::DiagNetConfig::defaults();
  config.seed = seed;
  config.trainer.threads = threads;
  if (epochs > 0) config.trainer.max_epochs = epochs;
  config.specialization = budget(config.specialization);
  core::DiagNetModel model(fs, config);
  std::cout << "Training general model...\n";
  const auto history = model.train_general(split.train);
  std::cout << "  best validation loss "
            << util::fmt(history.epochs[history.best_epoch].validation_loss, 4)
            << " at epoch " << (history.best_epoch + 1) << " ("
            << util::fmt(history.wall_seconds, 1) << " s)\n";

  netsim::Simulator sim = netsim::Simulator::make_default(seed);
  for (std::size_t s = 0; s < sim.services().size(); ++s) {
    std::size_t count = 0;
    for (const auto& sample : split.train.samples)
      count += sample.service == s ? 1 : 0;
    if (count <= 50) continue;
    const auto special = model.specialize(s, split.train);
    std::cout << "  specialised '" << sim.services()[s].name << "' in "
              << (special.best_epoch + 1) << " epoch(s)\n";
  }

  if (util::Status s = core::try_save_model_file(model, out); !s.ok()) {
    std::cerr << "error: " << s.message() << '\n';
    return 1;
  }
  std::cout << "Saved model bundle to " << out << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// diagnose

const util::ArgSpec kDiagnoseArgs[] = {
    {"campaign", util::ArgType::kString, "campaign.csv", "input campaign (CSV file or chunked dir)"},
    {"model", util::ArgType::kString, "model.bin", "trained model bundle"},
    {"sample", util::ArgType::kUint, "0", "index among faulty samples"},
};

int cmd_diagnose(const util::ParsedArgs& args) {
  const std::string campaign_path = args.str("campaign");
  const std::string model_path = args.str("model");
  const std::uint64_t wanted = args.uint("sample");

  const netsim::Topology topology = netsim::default_topology();
  const data::FeatureSpace fs(topology);
  auto dataset_or = data::try_read_campaign(campaign_path, fs);
  if (!dataset_or.ok()) {
    std::cerr << "error: " << dataset_or.status().message() << '\n';
    return 1;
  }
  auto model_or = core::try_load_model_file(model_path, fs);
  if (!model_or.ok()) {
    std::cerr << "error: " << model_or.status().message() << '\n';
    return 1;
  }
  const auto model = std::move(model_or).value();

  std::size_t seen = 0;
  for (const data::Sample& sample : dataset_or.value().samples) {
    if (!sample.is_faulty() || seen++ != wanted) continue;
    core::DiagnoseRequest request;
    request.features = sample.features;
    request.service = sample.service;
    const core::DiagnoseResponse response = model->diagnose(request);
    if (!response.ok()) {
      std::cerr << "error: " << response.status.message() << '\n';
      return 1;
    }
    const core::Diagnosis& diagnosis = response.diagnosis;
    std::cout << "Faulty sample #" << wanted << " (client in "
              << topology.region(sample.client_region).code
              << "), ground truth: " << fs.name(sample.primary_cause)
              << "\n\n";
    util::Table table({"rank", "cause", "score"});
    for (std::size_t r = 0; r < 5; ++r)
      table.add_row({std::to_string(r + 1), fs.name(diagnosis.ranking[r]),
                     util::fmt(diagnosis.scores[diagnosis.ranking[r]], 4)});
    std::cout << table.to_string();
    return 0;
  }
  std::cerr << "error: campaign has only " << seen
            << " faulty samples (wanted #" << wanted << ")\n";
  return 1;
}

// ---------------------------------------------------------------------------
// evaluate

const util::ArgSpec kEvaluateArgs[] = {
    {"campaign", util::ArgType::kString, "campaign.csv", "input campaign (CSV file or chunked dir)"},
    {"model", util::ArgType::kString, "model.bin", "trained model bundle"},
};

int cmd_evaluate(const util::ParsedArgs& args) {
  const std::string campaign_path = args.str("campaign");
  const std::string model_path = args.str("model");

  const netsim::Topology topology = netsim::default_topology();
  const data::FeatureSpace fs(topology);

  // All faulty samples go through the batched diagnosis engine: one
  // network pass per batch instead of one forward+backward per sample.
  // The campaign streams in chunk by chunk — only the faulty requests are
  // retained, so evaluation never holds the whole campaign in RAM.
  // Campaign problems are reported before model problems.
  std::vector<core::DiagnoseRequest> requests;
  std::vector<std::size_t> truths;
  const auto streamed = data::for_each_campaign_sample(
      campaign_path, fs, [&](const data::Sample& sample) {
        if (!sample.is_faulty()) return;
        core::DiagnoseRequest request;
        request.features = sample.features;
        request.service = sample.service;
        requests.push_back(std::move(request));
        truths.push_back(sample.primary_cause);
      });
  if (!streamed.ok()) {
    std::cerr << "error: " << streamed.status().message() << '\n';
    return 1;
  }
  if (requests.empty()) {
    std::cerr << "error: no faulty samples in " << campaign_path << '\n';
    return 1;
  }

  auto model_or = core::try_load_model_file(model_path, fs);
  if (!model_or.ok()) {
    std::cerr << "error: " << model_or.status().message() << '\n';
    return 1;
  }
  const auto model = std::move(model_or).value();
  const core::BatchDiagnoser batcher(*model);
  std::vector<core::DiagnoseResponse> responses = batcher.run(requests);
  std::vector<std::vector<std::size_t>> rankings;
  rankings.reserve(responses.size());
  for (core::DiagnoseResponse& response : responses) {
    if (!response.ok()) {
      std::cerr << "error: " << response.status.message() << '\n';
      return 1;
    }
    rankings.push_back(std::move(response.diagnosis.ranking));
  }
  util::Table table({"k", "Recall@k"});
  for (std::size_t k = 1; k <= 5; ++k)
    table.add_row({std::to_string(k),
                   util::fmt(eval::recall_at_k(rankings, truths, k), 3)});
  std::cout << rankings.size() << " faulty samples\n" << table.to_string();
  return 0;
}

// ---------------------------------------------------------------------------
// selfcheck

const util::ArgSpec kSelfcheckArgs[] = {
    {"seed", util::ArgType::kUint, "1", "base RNG seed for every suite"},
    {"iters", util::ArgType::kUint, "50", "iterations per property"},
    {"suite", util::ArgType::kString, "", "substring filter on suite names"},
    {"corpus", util::ArgType::kString, "", "failure replay/append file"},
};

int cmd_selfcheck(const util::ParsedArgs& args) {
  testkit::SelfCheckConfig config;
  config.seed = args.uint("seed");
  config.iters = args.uint("iters");
  config.filter = args.str("suite");
  config.corpus_path = args.str("corpus");

  const testkit::SelfCheckReport report =
      testkit::run_selfcheck(config, std::cout);
  if (report.suites.empty()) {
    std::cerr << "error: no suite matches --suite '" << config.filter
              << "'\n";
    return 2;
  }
  return report.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve

#if defined(__unix__) || defined(__APPLE__)
std::atomic<bool> g_interrupted{false};

void handle_sigint(int) { g_interrupted.store(true); }

void install_sigint_handler() {
  struct sigaction action {};
  action.sa_handler = handle_sigint;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: a blocking stdin read returns on SIGINT, so the
  // session loop sees the flag and starts the graceful drain.
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  // A client that hangs up before reading its responses must surface as a
  // write error in the transport, not as a process-killing SIGPIPE.
  signal(SIGPIPE, SIG_IGN);
}
#else
std::atomic<bool> g_interrupted{false};
void install_sigint_handler() {}
#endif

const util::ArgSpec kServeArgs[] = {
    {"model", util::ArgType::kString, "model.bin", "trained bundle to serve"},
    {"port", util::ArgType::kUint, "0",
     "loopback TCP port (0 = line-JSON over stdin/stdout)"},
    {"loops", util::ArgType::kUint, "1",
     "epoll event-loop threads (loop 0 accepts and deals round-robin)"},
    {"max-conns", util::ArgType::kUint, "100000",
     "connection cap; accepts beyond it get one error line"},
    {"idle-timeout-s", util::ArgType::kDouble, "0",
     "close connections with no traffic for this long (0 = never)"},
    {"max-line-bytes", util::ArgType::kUint, "1048576",
     "request-line length cap before the connection is closed"},
    {"max-batch", util::ArgType::kUint, "64",
     "max requests fused into one batch"},
    {"max-delay-us", util::ArgType::kUint, "2000",
     "batch-forming window after the oldest waiting arrival"},
    {"queue-cap", util::ArgType::kUint, "1024",
     "admission bound; beyond it requests are rejected, never queued"},
    {"threads", util::ArgType::kUint, "1",
     "worker threads for the batch engine"},
    {"top-k", util::ArgType::kUint, "5",
     "causes per response when the request does not say"},
    {"service-models", util::ArgType::kString, "",
     "comma-separated id:path specialised head bundles merged onto --model"},
    {"watch", util::ArgType::kFlag, "",
     "poll --model and every --service-models bundle; hot-swap atomically"},
    {"watch-interval-ms", util::ArgType::kUint, "500",
     "poll period for --watch"},
    {"admin-port", util::ArgType::kUint, "0",
     "loopback HTTP port for GET /statsz and /metrics (0 = off)"},
    {"stats-interval-s", util::ArgType::kDouble, "0",
     "print a periodic stats line to stderr (0 = off)"},
};

int cmd_serve(const util::ParsedArgs& args) {
  const std::string model_path = args.str("model");
  if (args.uint("max-batch") == 0 || args.uint("queue-cap") == 0) {
    std::cerr << "error: --max-batch and --queue-cap must be positive\n";
    return 1;
  }
  if (args.uint("port") > 65535 || args.uint("admin-port") > 65535) {
    std::cerr << "error: --port/--admin-port must be <= 65535\n";
    return 1;
  }

  const netsim::Topology topology = netsim::default_topology();
  const data::FeatureSpace fs(topology);
  auto specs_or = serve::parse_service_models(args.str("service-models"));
  if (!specs_or.ok()) {
    std::cerr << "error: " << specs_or.status().message() << '\n';
    return 1;
  }

  // The provider merges every --service-models head onto the general
  // bundle and, under --watch, republishes the whole merge in one swap, so
  // a reload can never mix bundle generations.
  const std::size_t head_bundles = specs_or.value().size();
  auto provider_or = serve::ModelProvider::from_file(
      model_path, fs, std::move(specs_or).value());
  if (!provider_or.ok()) {
    std::cerr << "error: " << provider_or.status().message() << '\n';
    return 1;
  }
  const std::shared_ptr<serve::ModelProvider> provider =
      std::move(provider_or).value();
  if (head_bundles > 0)
    std::cerr << "serve: merged " << head_bundles
              << " specialised head bundle(s) onto the general model ("
              << provider->current()->specialized_services().size()
              << " routable service(s))\n";
  std::cerr << "serve: kernel tier " << tensor::active_kernel_tier_name()
            << " (cpu " << tensor::cpu_features_string() << ")\n";

  serve::ServiceConfig config;
  config.max_batch = args.uint("max-batch");
  config.max_delay_us = args.uint("max-delay-us");
  config.queue_capacity = args.uint("queue-cap");
  config.worker_threads = args.uint("threads");
  serve::DiagnosisService service(provider, config);

  // A serving process records its own latency/throughput telemetry
  // unconditionally — statsz without metrics would be an empty shell.
  // DIAGNET_OBS=0 still force-disables everything.
  obs::set_enabled(true);

  serve::StatszSource statsz_source;
  statsz_source.service = &service;
  statsz_source.provider = provider.get();
  statsz_source.start = std::chrono::steady_clock::now();
  serve::SessionHooks hooks;
  hooks.statsz = [&statsz_source] {
    return serve::statsz_json(statsz_source);
  };

  const std::size_t top_k = args.uint("top-k");
  // Built up front (and registered with statsz before the admin listener
  // thread starts) so a scrape never races the transport choice below.
  std::unique_ptr<serve::Reactor> reactor;
  if (args.uint("port") != 0) {
    serve::ReactorConfig reactor_config;
    reactor_config.loops = std::max<std::size_t>(args.uint("loops"), 1);
    reactor_config.max_connections =
        std::max<std::size_t>(args.uint("max-conns"), 1);
    reactor_config.max_line_bytes =
        std::max<std::size_t>(args.uint("max-line-bytes"), 1);
    reactor_config.idle_timeout = std::chrono::milliseconds(
        static_cast<std::int64_t>(args.num("idle-timeout-s") * 1000.0));
    reactor_config.default_top_k = top_k;
    reactor = std::make_unique<serve::Reactor>(service, fs, reactor_config,
                                               &hooks);
    statsz_source.reactor = reactor.get();
  }

  install_sigint_handler();

  std::atomic<bool> watch_stop{false};
  std::thread watcher;
  if (args.flag("watch")) {
    const auto interval =
        std::chrono::milliseconds(args.uint("watch-interval-ms"));
    watcher = std::thread([&watch_stop, provider, interval] {
      while (!watch_stop.load()) {
        std::this_thread::sleep_for(interval);
        util::Status status;
        if (provider->poll_and_reload(&status))
          std::cerr << "serve: hot-swapped model (generation "
                    << provider->generation() << ")\n";
        else if (!status.ok())
          std::cerr << "serve: reload failed, keeping current model: "
                    << status.to_string() << '\n';
      }
    });
  }

  // Auxiliary threads (admin HTTP listener, periodic stats line) stop on
  // their own flag — set both on SIGINT *and* on a normal EOF drain.
  std::atomic<bool> aux_stop{false};
  std::thread admin;
  util::Status admin_status;
  if (args.uint("admin-port") != 0) {
    admin = std::thread([&admin_status, &statsz_source, &args, &aux_stop] {
      admin_status = serve::run_admin_listener(
          statsz_source, static_cast<std::uint16_t>(args.uint("admin-port")),
          aux_stop);
      if (!admin_status.ok())
        std::cerr << "serve: " << admin_status.message() << '\n';
    });
  }
  std::thread stats_printer;
  if (args.num("stats-interval-s") > 0) {
    const auto interval = std::chrono::duration<double>(
        args.num("stats-interval-s"));
    stats_printer = std::thread([&service, interval, &aux_stop] {
      auto next = std::chrono::steady_clock::now() + interval;
      while (!aux_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (std::chrono::steady_clock::now() < next) continue;
        next += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(interval);
        const serve::DiagnosisService::Stats s = service.stats();
        std::cerr << "serve: stats accepted=" << s.accepted
                  << " completed=" << s.completed << " rejected="
                  << s.rejected << " shed=" << s.shed << " batches="
                  << s.batches << " queue_depth=" << service.queue_depth()
                  << '\n';
      }
    });
  }

  serve::SessionStats session_stats;
  util::Status listen_status;
  if (reactor != nullptr) {
    listen_status = reactor->listen(
        static_cast<std::uint16_t>(args.uint("port")));
    if (listen_status.ok()) listen_status = reactor->run(g_interrupted);
    const serve::ReactorStats rstats = reactor->stats();
    session_stats.requests = rstats.requests;
    session_stats.responses = rstats.responses;
    session_stats.errors = rstats.protocol_errors;
  } else {
    std::cerr << "serve: reading line-JSON requests from stdin "
                 "(EOF or SIGINT drains and exits)\n";
    session_stats = serve::run_session(service, fs, std::cin, std::cout,
                                       top_k, &g_interrupted, &hooks);
  }

  service.stop();  // graceful drain: every accepted request is answered
  watch_stop.store(true);
  aux_stop.store(true);
  if (watcher.joinable()) watcher.join();
  if (admin.joinable()) admin.join();
  if (stats_printer.joinable()) stats_printer.join();

  const serve::DiagnosisService::Stats stats = service.stats();
  std::cerr << "serve: drained — " << session_stats.requests
            << " request line(s), " << session_stats.responses
            << " response(s), " << session_stats.errors
            << " error(s); accepted " << stats.accepted << ", rejected "
            << stats.rejected << ", shed " << stats.shed << ", batches "
            << stats.batches << ", model generation "
            << provider->generation() << '\n';
  if (!listen_status.ok()) {
    std::cerr << "error: " << listen_status.message() << '\n';
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// mkrequests

const util::ArgSpec kMkrequestsArgs[] = {
    {"campaign", util::ArgType::kString, "campaign.csv",
     "campaign (CSV or chunked dir) to draw samples from"},
    {"out", util::ArgType::kString, "requests.jsonl",
     "output file, one serve request JSON per line"},
    {"limit", util::ArgType::kUint, "100",
     "requests to emit (cycles the samples when larger)"},
    {"deadline-ms", util::ArgType::kDouble, "0",
     "per-request deadline (0 = none)"},
    {"all", util::ArgType::kFlag, "",
     "include nominal samples too (default: faulty only)"},
};

int cmd_mkrequests(const util::ParsedArgs& args) {
  const std::string campaign_path = args.str("campaign");
  const std::string out = args.str("out");
  const std::uint64_t limit = args.uint("limit");
  const double deadline_ms = args.num("deadline-ms");
  const bool include_nominal = args.flag("all");

  const netsim::Topology topology = netsim::default_topology();
  const data::FeatureSpace fs(topology);
  auto dataset_or = data::try_read_campaign(campaign_path, fs);
  if (!dataset_or.ok()) {
    std::cerr << "error: " << dataset_or.status().message() << '\n';
    return 1;
  }
  const data::Dataset& dataset = dataset_or.value();

  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < dataset.samples.size(); ++i)
    if (include_nominal || dataset.samples[i].is_faulty())
      eligible.push_back(i);
  if (eligible.empty()) {
    std::cerr << "error: no " << (include_nominal ? "" : "faulty ")
              << "samples in " << campaign_path << '\n';
    return 1;
  }

  std::ofstream file(out, std::ios::trunc);
  if (!file) {
    std::cerr << "error: cannot open " << out << " for writing\n";
    return 1;
  }
  for (std::uint64_t i = 0; i < limit; ++i) {
    const data::Sample& sample =
        dataset.samples[eligible[i % eligible.size()]];
    // format_request is the inverse of the server's parse_request, so
    // mkrequests and loadgen can never drift from the wire dialect.
    serve::WireRequest wire;
    wire.id = i + 1;
    wire.request.features = sample.features;
    wire.request.service = sample.service;
    wire.deadline_ms = deadline_ms;
    file << serve::format_request(wire) << '\n';
  }
  file.flush();
  if (!file) {
    std::cerr << "error: failed writing " << out << '\n';
    return 1;
  }
  std::cout << "Wrote " << limit << " request(s) from " << eligible.size()
            << " sample(s) to " << out << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// loadgen

const util::ArgSpec kLoadgenArgs[] = {
    {"port", util::ArgType::kUint, "0",
     "TCP port of a live `diagnet serve --port` (required)"},
    {"campaign", util::ArgType::kString, "campaign.csv",
     "campaign (CSV or chunked dir) the request pool is drawn from"},
    {"requests", util::ArgType::kUint, "1000",
     "total requests to send across all connections"},
    {"rps", util::ArgType::kDouble, "0",
     "open-loop target rate (0 = closed loop at --concurrency)"},
    {"concurrency", util::ArgType::kUint, "4",
     "concurrent connections (multiplexed over --threads workers)"},
    {"threads", util::ArgType::kUint, "0",
     "poll worker threads driving the connections (0 = auto)"},
    {"pool", util::ArgType::kUint, "256",
     "distinct request lines pre-built from the campaign"},
    {"deadline-ms", util::ArgType::kDouble, "0",
     "per-request deadline field (0 = none)"},
    {"seed", util::ArgType::kUint, "1", "request-sampling seed"},
    {"out", util::ArgType::kString, "BENCH_serve.json",
     "benchmark report (JSON) path"},
    {"no-statsz", util::ArgType::kFlag, "",
     "skip the mid-run in-band statsz probe"},
};

int cmd_loadgen(const util::ParsedArgs& args) {
  if (args.uint("port") == 0 || args.uint("port") > 65535) {
    std::cerr << "error: --port must name a live serve TCP port\n";
    return 1;
  }
  const netsim::Topology topology = netsim::default_topology();
  const data::FeatureSpace fs(topology);
  auto dataset_or = data::try_read_campaign(args.str("campaign"), fs);
  if (!dataset_or.ok()) {
    std::cerr << "error: " << dataset_or.status().message() << '\n';
    return 1;
  }
  const data::Dataset& dataset = dataset_or.value();
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < dataset.samples.size(); ++i)
    if (dataset.samples[i].is_faulty()) eligible.push_back(i);
  if (eligible.empty()) {
    std::cerr << "error: no faulty samples in " << args.str("campaign")
              << '\n';
    return 1;
  }

  serve::LoadgenConfig config;
  config.port = static_cast<std::uint16_t>(args.uint("port"));
  config.requests = args.uint("requests");
  config.target_rps = args.num("rps");
  config.concurrency = args.uint("concurrency");
  config.threads = args.uint("threads");
  config.seed = args.uint("seed");
  config.probe_statsz = !args.flag("no-statsz");
  const std::size_t pool_size =
      std::min<std::size_t>(std::max<std::uint64_t>(args.uint("pool"), 1),
                            4096);
  config.pool.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    const data::Sample& sample =
        dataset.samples[eligible[i % eligible.size()]];
    serve::WireRequest wire;
    wire.id = i + 1;
    wire.request.features = sample.features;
    wire.request.service = sample.service;
    wire.deadline_ms = args.num("deadline-ms");
    config.pool.push_back(serve::format_request(wire));
  }

  std::cerr << "loadgen: driving 127.0.0.1:" << config.port << " with "
            << config.requests << " request(s), "
            << (config.target_rps > 0 ? "open loop" : "closed loop")
            << ", concurrency " << config.concurrency << '\n';
  auto report_or = serve::run_loadgen(config);
  if (!report_or.ok()) {
    std::cerr << "error: " << report_or.status().message() << '\n';
    return 1;
  }
  const serve::LoadgenReport& report = report_or.value();
  const auto& lat = report.latency_ms;

  util::Table table({"metric", "value"});
  const auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return std::string(buf);
  };
  table.add_row({"connected", std::to_string(report.connected)});
  table.add_row({"sent", std::to_string(report.sent)});
  table.add_row({"ok", std::to_string(report.ok)});
  table.add_row({"rejected", std::to_string(report.rejected)});
  table.add_row({"errors", std::to_string(report.errors)});
  table.add_row({"wall_seconds", num(report.wall_seconds)});
  table.add_row({"achieved_rps", num(report.achieved_rps)});
  table.add_row({"latency_p50_ms", num(lat.percentile(0.50))});
  table.add_row({"latency_p90_ms", num(lat.percentile(0.90))});
  table.add_row({"latency_p99_ms", num(lat.percentile(0.99))});
  table.add_row({"latency_p999_ms", num(lat.percentile(0.999))});
  table.add_row({"latency_max_ms", num(lat.max)});
  std::cout << table.to_string();
  if (!report.statsz.empty())
    std::cout << "statsz (mid-run): " << report.statsz << '\n';

  std::string json = "{\"bench\":\"serve\",";
  json += obs::run_metadata_json();
  char buf[64];
  const auto field = [&](const char* name, double v) {
    std::snprintf(buf, sizeof buf, "%.6g", v);
    json += ",\"";
    json += name;
    json += "\":";
    json += buf;
  };
  json += ",\"requests\":" + std::to_string(config.requests);
  json += ",\"concurrency\":" + std::to_string(config.concurrency);
  field("target_rps", config.target_rps);
  json += ",\"connected\":" + std::to_string(report.connected);
  json += ",\"sent\":" + std::to_string(report.sent);
  json += ",\"ok\":" + std::to_string(report.ok);
  json += ",\"rejected\":" + std::to_string(report.rejected);
  json += ",\"errors\":" + std::to_string(report.errors);
  field("wall_seconds", report.wall_seconds);
  field("achieved_rps", report.achieved_rps);
  json += ",\"latency_ms\":{";
  std::snprintf(buf, sizeof buf, "%.6g", lat.mean());
  json += "\"mean\":";
  json += buf;
  const auto pct = [&](const char* name, double q) {
    std::snprintf(buf, sizeof buf, "%.6g", lat.percentile(q));
    json += ",\"";
    json += name;
    json += "\":";
    json += buf;
  };
  pct("p50", 0.50);
  pct("p90", 0.90);
  pct("p99", 0.99);
  pct("p999", 0.999);
  std::snprintf(buf, sizeof buf, "%.6g", lat.max);
  json += ",\"max\":";
  json += buf;
  json += '}';
  if (!report.statsz.empty()) json += ",\"statsz\":" + report.statsz;
  json += "}\n";

  std::ofstream out(args.str("out"), std::ios::trunc);
  out << json;
  out.flush();
  if (!out) {
    std::cerr << "error: failed writing " << args.str("out") << '\n';
    return 1;
  }
  std::cout << "Wrote " << args.str("out") << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// command registry

struct Command {
  const char* name;
  const char* summary;
  std::span<const util::ArgSpec> specs;
  int (*handler)(const util::ParsedArgs&);
};

const Command kCommands[] = {
    {"simulate", "generate a fault-injection measurement campaign as CSV",
     kSimulateArgs, cmd_simulate},
    {"train", "train the DIAGNET bundle from a campaign and save it",
     kTrainArgs, cmd_train},
    {"diagnose", "print the ranked root causes for one faulty sample",
     kDiagnoseArgs, cmd_diagnose},
    {"evaluate", "Recall@k of a model over every faulty campaign sample",
     kEvaluateArgs, cmd_evaluate},
    {"serve", "long-lived micro-batching diagnosis service (line JSON)",
     kServeArgs, cmd_serve},
    {"mkrequests", "turn campaign samples into serve request lines",
     kMkrequestsArgs, cmd_mkrequests},
    {"loadgen", "drive a live serve TCP endpoint and report tail latency",
     kLoadgenArgs, cmd_loadgen},
    {"selfcheck", "run the seeded property/differential/fuzz suites",
     kSelfcheckArgs, cmd_selfcheck},
};

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args = setup_telemetry(argc, argv);
  if (args.empty()) {
    std::cerr << "usage: diagnet <command> [--flag value ...]\n\ncommands:\n";
    for (const Command& command : kCommands) {
      std::string left = "  ";
      left += command.name;
      left.resize(14, ' ');
      std::cerr << left << command.summary << '\n';
    }
    std::cerr << "\ntelemetry (any command): [--trace file] [--metrics file]"
                 " [--telemetry]\nper-command flags: diagnet <command>"
                 " --help\n";
    return 2;
  }
  const std::string name = args[0];
  const Command* command = nullptr;
  for (const Command& candidate : kCommands)
    if (name == candidate.name) command = &candidate;
  if (command == nullptr) {
    std::cerr << "unknown command: " << name << '\n';
    return 2;
  }
  const auto parsed = util::parse_args(args, 1, command->specs);
  if (!parsed.ok()) {
    if (parsed.status().code() == util::StatusCode::kNotFound) {
      std::cout << util::help_text(command->name, command->summary,
                                   command->specs);
      return 0;
    }
    std::cerr << "error: " << parsed.status().message() << '\n';
    return 1;
  }
  try {
    return command->handler(parsed.value());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
