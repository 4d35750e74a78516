// Deterministic test harness for the epoll reactor (serve/reactor.h).
//
// The production reactor is event-driven end to end, which makes it
// testable without a single sleep: a ReactorSim owns one ReactorLoop whose
// connections are the server halves of socketpairs, and whose clock is an
// injectable FakeClock that only moves when the test says so. Tests drive
// the loop explicitly:
//
//  * pump() runs exactly one poll pass (timeout 0, so purely the work that
//    is already ready);
//  * wait_line() alternates blocking poll passes with client-side reads —
//    the blocking pass parks in epoll_wait and is woken by the completion
//    queue's eventfd the moment a DiagnosisService batch finishes, so
//    round-trips through the real micro-batcher cost zero polling loops
//    and zero sleeps;
//  * clock().advance() leaps the fake clock — the next pump() advances the
//    timer wheel that far, so a 5-second idle timeout is tested in
//    microseconds of wall time.
//
// Backpressure is made deterministic by shrinking the socketpair's kernel
// buffers (SimConn::shrink_buffers): a few statsz lines then fill the
// server's send buffer, the reactor's watermarks trip synchronously inside
// pump(), and the test asserts on ReactorStats transitions.
//
// The service behind the loop serves the cached tiny fuzz-fixture model
// (testkit/fuzz.h), with max_delay_us=0 so every batch forms immediately.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/reactor.h"
#include "serve/server.h"
#include "serve/service.h"

namespace diagnet::testkit {

/// Injectable clock: starts at the steady_clock epoch and moves only via
/// advance(). fn() adapts it to ReactorLoop::ClockFn (the sim must outlive
/// the loop, which ReactorSim guarantees by owning both).
class FakeClock {
 public:
  std::chrono::steady_clock::time_point now() const { return now_; }
  void advance(std::chrono::milliseconds delta) { now_ += delta; }
  serve::ReactorLoop::ClockFn fn() {
    return [this] { return now_; };
  }

 private:
  std::chrono::steady_clock::time_point now_{};
};

/// The client half of one simulated connection. Non-blocking; reads
/// buffer internally so lines can be popped as they complete.
class SimConn {
 public:
  SimConn() = default;
  explicit SimConn(int fd) : fd_(fd) {}
  SimConn(SimConn&& other) noexcept;
  SimConn& operator=(SimConn&& other) noexcept;
  SimConn(const SimConn&) = delete;
  SimConn& operator=(const SimConn&) = delete;
  ~SimConn();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Write raw bytes toward the reactor. Returns false on a hard error
  /// (e.g. the reactor closed the connection). Partial non-blocking
  /// writes are retried inline; a completely full pipe drops the rest
  /// (only reachable with shrunken buffers and a stalled reader).
  bool send(const std::string& bytes);

  /// Drain whatever the reactor has written so far into the internal
  /// buffer. Returns false once the peer has closed (EOF seen).
  bool drain();

  /// Pop the next complete buffered line. Does not read the socket.
  bool next_line(std::string* line);

  /// True once EOF was observed (reactor closed its end) and every
  /// buffered byte has been consumed by next_line().
  bool closed_and_empty() const;
  bool eof() const { return saw_eof_; }

  /// Shrink SO_SNDBUF/SO_RCVBUF on this (client) end so backpressure
  /// scenarios fill kernel buffers with a handful of lines.
  void shrink_buffers(int bytes);

  /// Half-close: shutdown(SHUT_WR), delivering EOF to the reactor while
  /// keeping the read side open for in-flight responses.
  void finish_writing();

  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool saw_eof_ = false;
};

/// The cached tiny serving fixture behind every ReactorSim — exposed so
/// tests can drive the same model and request pool over a *real*
/// transport too (the cross-transport bit-exactness suite).
std::shared_ptr<core::DiagNetModel> tiny_serving_model();
const data::FeatureSpace& tiny_serving_space();
std::size_t tiny_faulty_count();
/// A valid wire request line over the tiny deployment (faulty sample
/// `index` mod the pool, wire id = id; no trailing newline).
std::string tiny_request_line(std::size_t index, std::uint64_t id,
                              double deadline_ms = 0.0);

struct ReactorSimOptions {
  serve::ReactorConfig reactor;
  /// Service batching window; 0 (default) dispatches every batch as soon
  /// as the dispatcher sees it — deterministic single-request batches.
  std::uint64_t max_delay_us = 0;
  std::size_t queue_capacity = 64;
  /// Shrink both ends of every socketpair to roughly this many bytes
  /// (0 = leave kernel defaults).
  int socket_buffer_bytes = 0;
};

/// One ReactorLoop + DiagnosisService over the cached tiny model, driven
/// manually. See file comment for the testing model.
class ReactorSim {
 public:
  explicit ReactorSim(ReactorSimOptions options = {});
  ~ReactorSim();

  ReactorSim(const ReactorSim&) = delete;
  ReactorSim& operator=(const ReactorSim&) = delete;

  /// Open one socketpair connection: the server half is adopted by the
  /// loop (processed on the next pump), the client half is returned.
  SimConn connect();

  /// One poll pass; timeout 0 = only work that is already ready.
  int pump(int timeout_ms = 0);

  /// Pump until a pass finds no work (or max_passes). Returns passes run.
  int pump_until_idle(int max_passes = 64);

  /// Read lines off `conn`, pumping with a blocking timeout between
  /// attempts, until one full line arrives (true) or the connection
  /// closes / max_passes elapse (false). No sleeps: the blocking pass is
  /// epoll_wait, woken by service completions through the eventfd.
  bool wait_line(SimConn& conn, std::string* line, int max_passes = 256);

  /// A valid wire request line (faulty sample `index`, wire id = id).
  std::string request_line(std::size_t index, std::uint64_t id,
                           double deadline_ms = 0.0) const;
  std::size_t faulty_samples() const;

  FakeClock& clock() { return clock_; }
  serve::ReactorLoop& loop() { return *loop_; }
  serve::DiagnosisService& service() { return *service_; }
  serve::ReactorStats stats() const { return loop_->stats(); }
  const data::FeatureSpace& fs() const;

  /// What the statsz in-band hook returns (tests can swap it for a large
  /// payload to drive backpressure).
  std::string statsz_payload = "{\"sim\":true}";

 private:
  ReactorSimOptions options_;
  FakeClock clock_;
  serve::SessionHooks hooks_;
  std::shared_ptr<serve::ModelProvider> provider_;
  std::unique_ptr<serve::DiagnosisService> service_;
  std::unique_ptr<serve::ReactorLoop> loop_;
};

}  // namespace diagnet::testkit
