// Epoll reactor: the one TCP transport of `diagnet serve --port`. Rather
// than one OS thread per connection (fine for tens of sessions, hopeless
// for the paper's fleets of mostly-idle end-user agents), the reactor
// holds every connection in a non-blocking epoll set and multiplexes the
// whole population over one — or a few — event-loop threads.
//
// Anatomy of one ReactorLoop:
//  * non-blocking sockets, level-triggered epoll readiness;
//  * per-connection read buffers with incremental line framing
//    (serve/framing.h) — byte-identical line semantics to the getline
//    loop of the stdio session, plus an enforced max line length;
//  * per-connection write buffers with watermark backpressure: a
//    connection whose responses are not draining stops being *read*
//    above write_stall_bytes (so a slow reader cannot pump unbounded
//    work into the service), resumes below write_resume_bytes, and is
//    closed outright at write_close_bytes;
//  * requests go to the DiagnosisService through its callback submit();
//    completions are formatted off-loop on the dispatcher thread, pushed
//    onto a completion queue, and an eventfd (pipe elsewhere) wakes the
//    loop to write them back — the loop thread never blocks on a future.
//    Responses are written in per-connection submission order (a
//    sequence-numbered reorder buffer), the same contract run_session's
//    writer thread gives pipelining clients;
//  * idle timeouts on a hashed timer wheel, driven by an injectable
//    clock — src/testkit/reactor_sim.h swaps in a fake clock so timeout
//    and backpressure paths are tested without real sleeps;
//  * connection caps: accepts beyond max_connections are answered with
//    one error line and closed.
//
// Scaling: Reactor runs N ReactorLoops. The listening socket lives in
// loop 0; accepted connections are handed out round-robin through each
// loop's adoption inbox + wakeup (accept-fd round-robin rather than
// SO_REUSEPORT, so one process owns admission control and the stats).
//
// The service layer above (micro-batcher, hot reload, statsz) is shared
// with the stdio session (serve/server.h): the reactor is only the TCP
// transport.
//
// Linux-only (epoll); reactor_supported() reports availability, and
// elsewhere `diagnet serve --port` fails and points at the stdio
// transport.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "data/feature_space.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/status.h"

namespace diagnet::serve {

struct ReactorConfig {
  /// Event-loop threads. Loop 0 owns the listener and deals accepted
  /// connections round-robin.
  std::size_t loops = 1;
  /// Global connection cap across all loops; accepts beyond it get one
  /// error line and an immediate close.
  std::size_t max_connections = 100000;
  /// Framing cap: a request line longer than this answers with one error
  /// line and closes the connection (see serve/framing.h).
  std::size_t max_line_bytes = 1u << 20;
  /// Write-buffer backpressure watermarks, per connection, in bytes.
  std::size_t write_stall_bytes = 256u << 10;   // stop reading above
  std::size_t write_resume_bytes = 64u << 10;   // resume reading below
  std::size_t write_close_bytes = 8u << 20;     // close the slow reader
  /// Close a connection with no bytes in either direction for this long.
  /// Zero disables idle timeouts.
  std::chrono::milliseconds idle_timeout{0};
  /// Forced-close deadline for the graceful drain after stop.
  std::chrono::milliseconds drain_timeout{5000};
  /// Causes per response when the request does not say.
  std::size_t default_top_k = 5;
};

/// Counter snapshot for statsz / tests. `active` and `buffered_bytes` are
/// gauges; everything else is monotonic.
struct ReactorStats {
  std::uint64_t accepted = 0;            // connections ever admitted
  std::uint64_t closed = 0;              // connections fully closed
  std::uint64_t active = 0;              // currently open
  std::uint64_t requests = 0;            // request lines processed
  std::uint64_t responses = 0;           // response lines written
  std::uint64_t idle_timeouts = 0;       // closes by the timer wheel
  std::uint64_t backpressure_stalls = 0; // read-pause transitions
  std::uint64_t slow_reader_closes = 0;  // write_close_bytes closes
  std::uint64_t over_capacity = 0;       // accepts refused at the cap
  std::uint64_t oversized_lines = 0;     // framing-limit violations
  std::uint64_t protocol_errors = 0;     // error lines written
  std::uint64_t buffered_bytes = 0;      // pending response bytes

  /// The "reactor-level errors" rollup the serving SLO gate checks: not
  /// client mistakes (protocol_errors) but serving failures — readers we
  /// had to kill, lines we refused, connections we turned away.
  std::uint64_t errors() const {
    return slow_reader_closes + over_capacity + oversized_lines;
  }
};

namespace detail {
/// Shared atomic counters behind ReactorStats — one block per Reactor,
/// shared by its loops (a standalone ReactorLoop owns a private block).
struct ReactorCounters {
  std::atomic<std::uint64_t> accepted{0}, closed{0}, active{0},
      requests{0}, responses{0}, idle_timeouts{0}, backpressure_stalls{0},
      slow_reader_closes{0}, over_capacity{0}, oversized_lines{0},
      protocol_errors{0}, buffered_bytes{0};
  ReactorStats snapshot() const;
};
}  // namespace detail

/// True when this build has the epoll reactor (Linux).
bool reactor_supported();

/// One event loop. Drive it either through Reactor::run (production) or
/// manually with poll_once() from a test harness. All methods are
/// loop-thread-only unless noted.
class ReactorLoop {
 public:
  using ClockFn = std::function<std::chrono::steady_clock::time_point()>;

  ReactorLoop(DiagnosisService& service, const data::FeatureSpace& fs,
              const ReactorConfig& config,
              const SessionHooks* hooks = nullptr, ClockFn clock = {},
              std::shared_ptr<detail::ReactorCounters> counters = nullptr);
  ~ReactorLoop();

  ReactorLoop(const ReactorLoop&) = delete;
  ReactorLoop& operator=(const ReactorLoop&) = delete;

  /// Take ownership of a connected socket (made non-blocking). Thread-
  /// safe: queues the fd on the adoption inbox and wakes the loop.
  util::Status adopt(int fd);

  /// Take ownership of a listening socket; this loop accepts from it and
  /// hands each connection to `dispatch` (nullptr = adopt locally).
  void attach_listener(int listener_fd, std::function<void(int)> dispatch);

  /// One epoll pass: drain completions and adoptions, wait up to
  /// `timeout_ms` for readiness (0 = poll), handle events, advance
  /// timers. Returns the number of units of work done (0 = pure
  /// timeout), so a harness can pump to quiescence.
  int poll_once(int timeout_ms);

  /// Thread-safe: make a blocking poll_once return now.
  void wake();

  /// Production stop wiring: once *stop becomes true, the next poll_once
  /// begins the graceful drain (stop accepting/reading, flush pending
  /// responses, then close). Checked inside poll_once.
  void set_stop_source(const std::atomic<bool>* stop);

  /// True once draining and every connection is closed.
  bool drained() const;

  /// Thread-safe gauge: connections currently owned by this loop.
  std::size_t open_connections() const;

  ReactorStats stats() const;

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

/// The multi-loop reactor transport behind `diagnet serve --port`: owns
/// the loops, the listening socket, and the loop threads.
class Reactor {
 public:
  Reactor(DiagnosisService& service, const data::FeatureSpace& fs,
          ReactorConfig config, const SessionHooks* hooks = nullptr,
          ReactorLoop::ClockFn clock = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Bind 127.0.0.1:port (0 = kernel-assigned, published through
  /// *bound_port) and register the listener with loop 0.
  util::Status listen(std::uint16_t port,
                      std::atomic<std::uint16_t>* bound_port = nullptr);

  /// Run every loop until `stop_flag` becomes true, then drain
  /// gracefully (in-flight responses are flushed before close, bounded
  /// by config.drain_timeout). Blocks; loop 0 runs on the caller's
  /// thread. unavailable on non-Linux builds.
  util::Status run(const std::atomic<bool>& stop_flag);

  ReactorStats stats() const;
  const ReactorConfig& config() const { return config_; }

 private:
  ReactorConfig config_;
  std::shared_ptr<detail::ReactorCounters> counters_;
  std::vector<std::unique_ptr<ReactorLoop>> loops_;
  int listener_fd_ = -1;
  std::atomic<std::size_t> round_robin_{0};
};

}  // namespace diagnet::serve
