// The benchmark's three workloads. Every call into the DiagNet library sits
// in workloads.cpp; main.cpp only parses arguments and prints the result.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured phase
  bool trace = false;     // traced run: per-layer metrics instead of end-to-end
  std::string work_dir;   // scratch directory for campaigns and bundles
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric name -> value. Units are fixed per name in main.cpp.
  std::map<std::string, double> metrics;
};

/// Open-loop rate ladder against the in-process epoll reactor.
RunResult run_serve_open(const RunOptions& options, Tracer& tracer);
/// Read a chunked campaign, train the general model and the heads, evaluate.
RunResult run_train_eval(const RunOptions& options, Tracer& tracer);
/// Client-mode streaming simulation into a chunked campaign, then read back.
RunResult run_simulate_stream(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench
