// The long-lived diagnosis service behind `diagnet serve`: a dynamic
// micro-batching queue in front of core::BatchDiagnoser.
//
// Concurrent producers enqueue single DiagnoseRequests through submit(),
// which returns a per-request future. One dispatcher thread drains up to
// max_batch requests — or whatever arrived within max_delay_us of the
// first waiting request, whichever happens first — and runs them through
// the batched engine, so the per-batch network passes (one forward + one
// backward for the whole batch) are amortised across callers who never
// coordinated. The batch engine's bit-exactness contract makes this
// invisible: every response is bit-identical to an unbatched
// DiagNetModel::diagnose() of the same request.
//
// Admission control and backpressure:
//  * bounded queue — submit() on a full queue resolves the future
//    immediately with resource_exhausted ("queue full"), it never blocks;
//  * per-request deadlines — a request whose deadline passed while queued
//    is shed with deadline_exceeded *before* it wastes a batch slot;
//  * graceful drain — stop() stops admission (unavailable), lets the
//    dispatcher finish every accepted request, then joins. The destructor
//    stops implicitly, so no future is ever abandoned.
//
// Model hot-swap: the service reads its model through a ModelProvider,
// which hands out shared_ptr snapshots. swap()/reload_from() atomically
// replace the pointer; a batch in flight keeps the old model alive until
// it completes, while the next batch picks up the new one. Requests are
// never mixed across models within a batch.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_diagnoser.h"
#include "core/diagnet.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace diagnet::serve {

/// Atomic handle to the currently-served model. Thread-safe; cheap to
/// snapshot (one mutex-protected shared_ptr copy).
class ModelProvider {
 public:
  explicit ModelProvider(std::shared_ptr<core::DiagNetModel> model,
                         std::uint64_t checksum = 0);

  /// Load the initial model from a registry bundle; remembers the file's
  /// mtime so a subsequent poll_and_reload() only fires on a newer write.
  static util::StatusOr<std::shared_ptr<ModelProvider>> from_file(
      const std::string& path, const data::FeatureSpace& fs);

  /// The model new batches should use. Never null.
  std::shared_ptr<core::DiagNetModel> current() const;

  /// Atomically publish a new model. In-flight users of the old snapshot
  /// are unaffected (shared ownership keeps it alive).
  void swap(std::shared_ptr<core::DiagNetModel> next);

  /// Publish a new model together with its payload checksum in one
  /// generation bump — the router path, where the served model is merged
  /// from several bundle files and the checksum is the combination the
  /// caller computed over all of them.
  void swap(std::shared_ptr<core::DiagNetModel> next, std::uint64_t checksum);

  /// Load a bundle through the v2 checksummed registry and swap it in.
  /// On any error (missing file, corrupt bundle, wrong deployment shape)
  /// the current model stays and the Status says why — a bad bundle can
  /// never take down a serving process.
  util::Status reload_from(const std::string& path,
                           const data::FeatureSpace& fs);

  /// Poll `path` for a newer modification time than the last successful
  /// (re)load and reload when seen. Returns true when a swap happened;
  /// errors are reported through *status (which is OK on no-op).
  bool poll_and_reload(const std::string& path,
                       const data::FeatureSpace& fs, util::Status* status);

  /// Generation counter: starts at 1, +1 per successful swap/reload.
  std::uint64_t generation() const;

  /// FNV-1a payload checksum of the bundle behind current(), as recorded
  /// by the v2 registry at load time — statsz exposes it so an operator
  /// can verify which trained weights a process serves. 0 when the model
  /// was handed in directly (no bundle ever loaded).
  std::uint64_t checksum() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<core::DiagNetModel> model_;
  std::uint64_t generation_ = 1;
  std::uint64_t checksum_ = 0;
  std::filesystem::file_time_type last_mtime_{};
  bool has_mtime_ = false;
};

struct ServiceConfig {
  /// Batch-forming caps: dispatch when max_batch requests are waiting, or
  /// max_delay_us after the oldest arrival, whichever comes first.
  std::size_t max_batch = 64;
  std::uint64_t max_delay_us = 2000;
  /// Admission bound; submissions beyond this are rejected (queue_full).
  std::size_t queue_capacity = 1024;
  /// Workers for the inner BatchDiagnoser (1 = run batches serially on
  /// the dispatcher thread, the deterministic single-core default).
  std::size_t worker_threads = 1;
};

class DiagnosisService {
 public:
  DiagnosisService(std::shared_ptr<ModelProvider> models,
                   ServiceConfig config = {});
  ~DiagnosisService();  // graceful stop()

  DiagnosisService(const DiagnosisService&) = delete;
  DiagnosisService& operator=(const DiagnosisService&) = delete;

  /// Enqueue one request. Always returns a future that will be fulfilled:
  /// with a diagnosis, or with a Status response (queue full, deadline
  /// exceeded, validation failure, server stopping). Never blocks beyond
  /// the internal mutex. deadline_ms == 0 means no deadline.
  std::future<core::DiagnoseResponse> submit(core::DiagnoseRequest request,
                                             double deadline_ms = 0.0);

  /// Callback flavour for event-loop transports (the epoll reactor): the
  /// same admission/shedding/batching semantics, but completion is
  /// delivered by invoking `done` exactly once instead of through a
  /// future. `done` runs on the dispatcher thread for batched results and
  /// shed deadlines, or synchronously on the caller's thread for
  /// immediate rejections (queue full, stopping) — it must be cheap,
  /// non-throwing, and must not call back into this service.
  using Completion = std::function<void(core::DiagnoseResponse)>;
  void submit(core::DiagnoseRequest request, double deadline_ms,
              Completion done);

  /// Graceful drain: stop admitting, complete every accepted request,
  /// join the dispatcher. Idempotent; safe from any thread (including a
  /// signal-triggered watcher, but not the dispatcher itself).
  void stop();

  bool stopping() const;

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;   // queue-full + stopping refusals
    std::uint64_t shed = 0;       // deadline-exceeded drops
    std::uint64_t completed = 0;  // diagnoses actually produced
    std::uint64_t batches = 0;    // dispatched batches
  };
  Stats stats() const;

  /// Live introspection for statsz: requests currently waiting for a
  /// batch slot, and batches currently executing (0 or 1 with a single
  /// dispatcher, but the contract does not promise that).
  std::size_t queue_depth() const;
  std::uint64_t in_flight_batches() const {
    return in_flight_batches_.load(std::memory_order_relaxed);
  }

  const ServiceConfig& config() const { return config_; }

 private:
  struct Pending {
    core::DiagnoseRequest request;
    std::promise<core::DiagnoseResponse> promise;
    Completion done;  // when set, delivery bypasses the promise
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  // max() = none
    std::uint64_t request_id = 0;
    bool has_deadline = false;

    void resolve(core::DiagnoseResponse&& response) {
      if (done)
        done(std::move(response));
      else
        promise.set_value(std::move(response));
    }
  };

  static Pending make_pending(core::DiagnoseRequest request,
                              double deadline_ms, std::uint64_t request_id);
  void enqueue(Pending pending);
  void dispatch_loop();
  void run_batch(std::vector<Pending> batch,
                 std::chrono::steady_clock::time_point formed);

  std::shared_ptr<ModelProvider> models_;
  ServiceConfig config_;
  util::ThreadPool pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  Stats stats_;
  /// Request ids are assigned at submit() — including rejected requests,
  /// so a reject in a client log still has a server-side identity.
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint64_t> in_flight_batches_{0};

  std::mutex stop_mu_;  // serialises the dispatcher join in stop()
  std::thread dispatcher_;
};

}  // namespace diagnet::serve
