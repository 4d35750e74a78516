// Load generator for a live `diagnet serve` TCP endpoint — the repo's
// serving benchmarks are *driven*, not simulated: loadgen opens real
// connections, speaks the production wire protocol, and measures
// end-to-end latency from the client side into the LogLinearHistogram
// that backs every registry histogram, so BENCH_serve.json percentiles
// are directly comparable with the server's own serve.latency_ms.
//
// Two driving modes:
//  * closed loop (target_rps == 0) — each of `concurrency` connections
//    keeps exactly one request in flight (send, wait, repeat); measures
//    the server's best-case latency under a fixed concurrency.
//  * open loop (target_rps > 0) — requests are assigned wall-clock send
//    slots on a fixed schedule shared across connections, and latency is
//    measured from the *scheduled* time, not the actual send: a server
//    that falls behind sees queueing delay counted against it
//    (coordinated-omission-safe, per Gil Tene's critique). Sends are
//    pipelined: a connection whose earlier request has no response yet
//    still sends at its slot, and responses are matched FIFO per
//    connection (the server answers in submission order).
//
// Connections are multiplexed: `threads` poll()-driven workers share the
// `concurrency` non-blocking sockets, so holding 10k+ concurrent
// connections against the epoll listener costs a handful of client
// threads, not 10k of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/loglin_histogram.h"
#include "util/status.h"

namespace diagnet::serve {

struct LoadgenConfig {
  std::uint16_t port = 0;       // TCP port of a live server (required)
  std::size_t requests = 1000;  // total requests across all connections
  double target_rps = 0.0;      // 0 = closed loop
  std::size_t concurrency = 4;  // parallel connections
  std::size_t threads = 0;      // poll workers; 0 = auto (≤ 8)
  std::uint64_t seed = 1;       // request-pool sampling
  /// Pre-formatted request lines (format_request output, no newline).
  /// Sampled with replacement, deterministically from `seed`.
  std::vector<std::string> pool;
  /// Issue an in-band {"cmd":"statsz"} probe from connection 0 halfway
  /// through its share, proving introspection works under load.
  bool probe_statsz = true;
  double connect_timeout_s = 5.0;  // retry window for the first connect
};

struct LoadgenReport {
  std::uint64_t connected = 0;  // connections actually opened
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;        // ok:true wire responses
  std::uint64_t rejected = 0;  // ok:false wire responses (queue full, ...)
  std::uint64_t errors = 0;    // transport failures / unparseable lines
  double wall_seconds = 0.0;
  double achieved_rps = 0.0;   // sent / wall_seconds
  obs::LogLinearHistogram::Snapshot latency_ms;  // end-to-end, client side
  std::string statsz;          // mid-run statsz line ("" when not probed)
};

/// Run one load-generation campaign against 127.0.0.1:config.port.
/// invalid_argument on an empty pool or zero requests/concurrency;
/// unavailable when the server cannot be reached (or on non-POSIX
/// builds, which lack the TCP client).
util::StatusOr<LoadgenReport> run_loadgen(const LoadgenConfig& config);

}  // namespace diagnet::serve
