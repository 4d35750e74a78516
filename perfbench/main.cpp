// perfbench — the DiagNet benchmark driver.
//
//   perfbench --workload serve-open|train-eval|simulate-stream --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// Runs one workload from a seed and prints, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. An untraced run
// (--trace 0) reports the end-to-end metrics, a traced run (--trace 1) the
// per-layer metrics; a layer the workload never calls reports 0. The traced
// run also writes its spans as Chrome trace-event JSON to --trace-out, and
// prints each span's total and self time to stderr. The exit code is 0 only
// when every correctness check passed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json: run.py refuses a result whose metric names
// differ from it.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"throughput_per_cpu_s", "1/s"},
    {"latency_cpu_ms", "ms"},
};

const MetricSpec kPerLayer[] = {
    // serve-open: TCP rungs and in-process replay
    {"serve.max_rps_at_slo", "req/s"},
    {"serve.p50_ms.low", "ms"},
    {"serve.p99_ms.low", "ms"},
    {"serve.p50_ms.high", "ms"},
    {"serve.p99_ms.high", "ms"},
    {"loadgen.achieved_ratio", "ratio"},
    {"serve.batch_rows.mean", "rows"},
    {"serve.service_ms.p50", "ms"},
    {"serve.transport_ms.p50", "ms"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.inference_ms.p50", "ms"},
    {"serve.write_back_ms.p50", "ms"},
    {"obs.serve_cost_pct", "%"},
    // serve-open: offline replay at the served batch size
    {"core.batch_us_per_row", "us"},
    {"core.batch.unattributed_us_per_row", "us"},
    {"core.batch.attention_share", "ratio"},
    {"data.encode_us_per_row", "us"},
    {"nn.attention_us_per_row", "us"},
    {"nn.fwd_us_per_row", "us"},
    {"nn.pool_fwd_us_per_row", "us"},
    {"nn.fc_fwd_us_per_row", "us"},
    {"nn.bwd_input_us_per_row", "us"},
    {"core.score_us_per_row", "us"},
    {"core.alg1_us_per_row", "us"},
    {"forest.score_us_per_row", "us"},
    {"forest.score_us_per_row.obs_off", "us"},
    {"core.ensemble_us_per_row", "us"},
    {"core.score.unattributed_us_per_row", "us"},
    {"tensor.attention_mflop_per_row", "MFLOP"},
    {"tensor.attention_mbyte_per_row", "MB"},
    {"tensor.attention_gflop_per_s", "GFLOP/s"},
    // train-eval
    {"train.s_per_epoch", "s"},
    {"train.time_to_model_s", "s"},
    {"quality.recall_at_1", "ratio"},
    {"data.read_s", "s"},
    {"data.split_s", "s"},
    {"data.encode_s", "s"},
    {"forest.fit_s", "s"},
    {"nn.train_s", "s"},
    {"core.specialize_s", "s"},
    {"train.unattributed_s", "s"},
    {"nn.train_rows_per_s", "rows/s"},
    {"nn.epochs", "count"},
    // simulate-stream
    {"simulate.samples_per_s", "samples/s"},
    {"data.sink_s", "s"},
    {"netsim.gen_s", "s"},
    {"data.sink_share", "ratio"},
    {"data.bytes_per_sample", "B"},
    {"data.read_back_s", "s"},
    // every workload
    {"obs.trace_overhead_pct", "%"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-open|train-eval|"
               "simulate-stream --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-out FILE]\n");
  return 2;
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(const perfbench::RunResult& result, bool traced) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = result.metrics.find(spec.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += first ? "" : ", ";
    first = false;
    json += "\"";
    json += spec.name;
    json += "\": {\"value\": ";
    json += buf;
    json += ", \"unit\": \"";
    json += spec.unit;
    json += "\"}";
  };
  if (traced)
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  else
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void report_spans(const perfbench::Tracer& tracer) {
  std::fprintf(stderr, "perfbench: span totals (ms): name total self count\n");
  for (const auto& [name, t] : tracer.totals()) {
    std::fprintf(stderr, "perfbench:   %-36s %12.3f %12.3f %6llu\n",
                 name.c_str(), t.total_us / 1000.0, t.self_us / 1000.0,
                 static_cast<unsigned long long>(t.count));
    if (t.has_children)
      std::fprintf(stderr, "perfbench:   %-36s %12.3f\n",
                   (name + ".unattributed").c_str(), t.self_us / 1000.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir, trace_out;
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      work_dir.empty())
    return usage();
  options.work_dir = work_dir;

  perfbench::RunResult (*run)(const perfbench::RunOptions&,
                              perfbench::Tracer&) = nullptr;
  if (workload == "serve-open") run = perfbench::run_serve_open;
  if (workload == "train-eval") run = perfbench::run_train_eval;
  if (workload == "simulate-stream") run = perfbench::run_simulate_stream;
  if (run == nullptr) return usage();

  perfbench::Tracer tracer(options.trace);
  perfbench::RunResult result;
  try {
    std::filesystem::create_directories(work_dir);
    result = run(options, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  result.metrics["peak_rss_mib"] = peak_rss_mib();
  if (options.trace) {
    report_spans(tracer);
    if (!trace_out.empty() && !tracer.write_chrome(trace_out))
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
  }
  print_result(result, options.trace);
  return result.correct ? 0 : 1;
}
