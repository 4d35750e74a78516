// Live introspection for the serving subsystem: one snapshot function
// rendered two ways, reachable over two surfaces.
//
//  * statsz_json()       — a single-line JSON object: uptime, queue depth,
//                          in-flight batches, admission-control counters,
//                          the model's generation + registry checksum, the
//                          process's peak RSS, and the full telemetry
//                          registry (counters / gauges / histograms).
//  * statsz_prometheus() — the same data in Prometheus text exposition
//                          format (counters, gauges, and summary-style
//                          quantile series for every histogram, span
//                          "<name>.ms" histograms included).
//
// Surfaces:
//  * in-band — a wire line {"cmd":"statsz"} on any session answers with
//    one statsz_json() line (wired through serve::SessionHooks);
//  * out-of-band — run_admin_listener() serves GET /statsz (JSON) and
//    GET /metrics (Prometheus) over a minimal loopback HTTP listener, so
//    an operator can curl a live server without speaking the wire
//    protocol, and a Prometheus scraper can point at it unmodified.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "serve/reactor.h"
#include "serve/service.h"
#include "util/status.h"

namespace diagnet::serve {

/// What a statsz snapshot reads from. Non-owning; everything must outlive
/// the listener/session using the source.
struct StatszSource {
  DiagnosisService* service = nullptr;    // may be null (fields omitted)
  ModelProvider* provider = nullptr;      // may be null (fields omitted)
  std::chrono::steady_clock::time_point start{};  // process serve start
  const Reactor* reactor = nullptr;       // epoll listener (fields omitted)
};

/// One-line JSON snapshot (no trailing newline).
std::string statsz_json(const StatszSource& source);

/// Prometheus text exposition format (multi-line, trailing newline).
std::string statsz_prometheus(const StatszSource& source);

/// Minimal HTTP/1.1 listener on 127.0.0.1:`port` (0 = kernel-assigned;
/// the bound port is published through *bound_port when non-null).
/// Serves GET /statsz and GET /metrics, 404 elsewhere; one connection at
/// a time (an admin surface, not a data plane). Returns when `stop_flag`
/// becomes true (checked between accepts) or on a fatal socket error.
/// On non-POSIX builds returns unavailable.
util::Status run_admin_listener(const StatszSource& source,
                                std::uint16_t port,
                                const std::atomic<bool>& stop_flag,
                                std::atomic<std::uint16_t>* bound_port =
                                    nullptr);

}  // namespace diagnet::serve
