// Report sinks for the telemetry registry: a human-readable summary table
// (rendered through util::Table so it matches the bench output style), a
// machine-readable metrics JSON, and the environment / exit-hook wiring the
// CLI and bench binaries share.
#pragma once

#include <string>

namespace diagnet::obs {

/// Render every counter, gauge and histogram currently in the registry as
/// banner + ASCII tables. Histograms report count / mean / p50 / p90 /
/// p99 / p999 / max / total.
std::string render_summary();

/// Same content as JSON:
///   {"counters": {...}, "gauges": {...},
///    "histograms": {"name": {"count":..,"mean":..,"min":..,"max":..,
///                            "p50":..,"p90":..,"p99":..,"p999":..}, ...}}
std::string metrics_to_json();

/// Run metadata shared by every BENCH_*.json emitter so perf trajectories
/// are comparable across machines and commits: a comma-joined fragment of
/// key:value pairs (no braces) —
///   "timestamp":"2026-08-08T12:00:00Z","git_sha":"abc1234",
///   "hardware_threads":8,"build_type":"Release"
/// git_sha/build_type come from compile definitions (DIAGNET_GIT_SHA,
/// DIAGNET_BUILD_TYPE, wired in src/obs/CMakeLists.txt), "unknown" when
/// absent; the timestamp is wall-clock UTC at call time.
std::string run_metadata_json();

/// metrics_to_json() straight to a file; returns false on I/O failure.
bool write_metrics_file(const std::string& path);

/// Exit-time behaviour, applied once at process exit (std::atexit):
///  * trace_path  != "" — write the Chrome trace JSON there,
///  * metrics_path != "" — write metrics_to_json() there,
///  * print_summary — print render_summary() to stdout.
/// Each call overwrites the previous configuration; enabling any sink also
/// turns telemetry on. Spans buffer trace events only while trace_path is
/// non-empty, so a run without a trace sink holds no event buffer.
void configure_exit_report(const std::string& trace_path,
                           const std::string& metrics_path,
                           bool print_summary);

/// Honour the environment, intended as the first statement of main():
///  * DIAGNET_TRACE=<path>   — enable telemetry, write trace there at exit;
///  * DIAGNET_METRICS=<path> — enable telemetry, write metrics JSON there;
///  * DIAGNET_TELEMETRY=1    — enable telemetry, print the summary at exit;
///  * DIAGNET_OBS=0          — force-disable telemetry (wins over all).
/// Returns true when telemetry ended up enabled.
bool init_from_env();

/// Peak resident set size of this process in KiB (0 where unsupported).
std::size_t peak_rss_kib();

}  // namespace diagnet::obs
