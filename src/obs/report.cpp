#include "obs/report.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/telemetry.h"
#include "tensor/dispatch.h"
#include "util/table.h"

namespace diagnet::obs {

namespace detail {
void set_trace_sink(bool configured);  // telemetry.cpp
}  // namespace detail

namespace {

struct ExitReport {
  std::mutex mu;
  std::string trace_path;
  std::string metrics_path;
  bool print_summary = false;
  bool hook_installed = false;
};

ExitReport& exit_report() {
  static auto* report = new ExitReport();  // leaked: read during atexit
  return *report;
}

void run_exit_report() {
  if (force_disabled()) return;  // DIAGNET_OBS=0: no sinks, no summary
  ExitReport& report = exit_report();
  std::lock_guard<std::mutex> lock(report.mu);
  if (!report.trace_path.empty()) {
    if (write_trace_file(report.trace_path))
      std::cerr << "[obs] trace written to " << report.trace_path << '\n';
    else
      std::cerr << "[obs] failed to write trace " << report.trace_path << '\n';
  }
  if (!report.metrics_path.empty() &&
      !write_metrics_file(report.metrics_path))
    std::cerr << "[obs] failed to write metrics " << report.metrics_path
              << '\n';
  if (report.print_summary) std::cout << render_summary();
}

void append_json_number(std::string& out, double v) {
  char buf[64];
  // NaN (empty histogram percentiles) is not valid JSON; emit null.
  if (v != v) {
    out += "null";
    return;
  }
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

std::string render_summary() {
  Registry& registry = Registry::instance();
  std::string out = util::banner("telemetry summary");

  const auto histograms = registry.histograms();
  if (!histograms.empty()) {
    util::Table table({"histogram", "count", "mean", "p50", "p90", "p99",
                       "p999", "max", "total"});
    for (const auto& [name, snap] : histograms) {
      if (snap.count == 0) continue;
      table.add_row({name, std::to_string(snap.count),
                     util::fmt(snap.mean(), 3),
                     util::fmt(snap.percentile(0.50), 3),
                     util::fmt(snap.percentile(0.90), 3),
                     util::fmt(snap.percentile(0.99), 3),
                     util::fmt(snap.percentile(0.999), 3),
                     util::fmt(snap.max, 3), util::fmt(snap.sum, 3)});
    }
    out += table.to_string();
  }

  const auto counters = registry.counters();
  const auto gauges = registry.gauges();
  if (!counters.empty() || !gauges.empty()) {
    util::Table table({"metric", "value"});
    for (const auto& [name, value] : counters)
      table.add_row({name, std::to_string(value)});
    for (const auto& [name, value] : gauges)
      table.add_row({name, util::fmt(value, 4)});
    out += table.to_string();
  }

  if (histograms.empty() && counters.empty() && gauges.empty())
    out += "(no telemetry recorded)\n";
  return out;
}

std::string metrics_to_json() {
  Registry& registry = Registry::instance();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : registry.counters()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : registry.gauges()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\":";
    append_json_number(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, snap] : registry.histograms()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\":{\"count\":" + std::to_string(snap.count);
    const std::pair<const char*, double> fields[] = {
        {"mean", snap.mean()},           {"min", snap.min},
        {"max", snap.max},               {"p50", snap.percentile(0.50)},
        {"p90", snap.percentile(0.90)},  {"p99", snap.percentile(0.99)},
        {"p999", snap.percentile(0.999)}};
    for (const auto& [key, value] : fields) {
      out += ",\"";
      out += key;
      out += "\":";
      append_json_number(out, value);
    }
    out += '}';
  }
  out += "}}";
  return out;
}

std::string run_metadata_json() {
#if defined(DIAGNET_GIT_SHA)
  const char* git_sha = DIAGNET_GIT_SHA;
#else
  const char* git_sha = "unknown";
#endif
#if defined(DIAGNET_BUILD_TYPE)
  const char* build_type = DIAGNET_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
#if defined(__unix__) || defined(__APPLE__)
  if (std::tm utc{}; gmtime_r(&now, &utc) != nullptr)
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &utc);
#else
  if (const std::tm* utc = std::gmtime(&now); utc != nullptr)
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", utc);
#endif
  std::string out = "\"timestamp\":\"";
  out += stamp;
  out += "\",\"git_sha\":\"";
  append_json_escaped(out, git_sha);
  out += "\",\"hardware_threads\":";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ",\"build_type\":\"";
  append_json_escaped(out, build_type);
  out += "\",\"cpu_features\":\"";
  append_json_escaped(out, tensor::cpu_features_string());
  out += "\",\"kernel_tier\":\"";
  append_json_escaped(out, tensor::active_kernel_tier_name());
  out += '"';
  return out;
}

bool write_metrics_file(const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  file << metrics_to_json() << '\n';
  return static_cast<bool>(file);
}

void configure_exit_report(const std::string& trace_path,
                           const std::string& metrics_path,
                           bool print_summary) {
  ExitReport& report = exit_report();
  std::lock_guard<std::mutex> lock(report.mu);
  report.trace_path = trace_path;
  report.metrics_path = metrics_path;
  report.print_summary = print_summary;
  detail::set_trace_sink(!trace_path.empty());
  if (!trace_path.empty() || !metrics_path.empty() || print_summary)
    set_enabled(true);
  if (!report.hook_installed) {
    report.hook_installed = true;
    std::atexit(run_exit_report);
  }
}

bool init_from_env() {
  const char* trace = std::getenv("DIAGNET_TRACE");
  const char* metrics = std::getenv("DIAGNET_METRICS");
  const char* telemetry = std::getenv("DIAGNET_TELEMETRY");
  const bool summary =
      telemetry != nullptr && std::string(telemetry) != "0" &&
      std::string(telemetry) != "";
  if ((trace && *trace) || (metrics && *metrics) || summary)
    configure_exit_report(trace ? trace : "", metrics ? metrics : "",
                          summary);
  const char* obs = std::getenv("DIAGNET_OBS");
  if (obs && std::string(obs) == "0") set_force_disabled(true);
  return enabled();
}

std::size_t peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss) / 1024;  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss);  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace diagnet::obs
