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
// which hands out shared_ptr snapshots. swap()/poll_and_reload()
// atomically replace the pointer; a batch in flight keeps the old model
// alive until it completes, while the next batch picks up the new one.
// Requests are never mixed across models within a batch.
//
// The served model is one general bundle plus zero or more per-service
// head bundles (`diagnet train --freeze-kernel --service <id>`), each
// head moved in through DiagNetModel::adopt_specialized, which binds it
// to the general's frozen representation so the batched engine pools a
// mixed-service batch once (core/batch_diagnoser.h). A reload rebuilds
// that whole merge and publishes it in one generation bump, so no batch
// ever sees a half-updated set of heads.
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

/// One per-service bundle mapping: serve `service` with the specialized
/// head found in the bundle at `path`.
struct ServiceModelSpec {
  std::size_t service = 0;
  std::string path;
};

/// Parse a `--service-models` value: comma-separated `id:path` pairs, e.g.
/// "0:svc0.dnet,3:svc3.dnet". Rejects malformed ids, empty paths and
/// duplicate service ids.
util::StatusOr<std::vector<ServiceModelSpec>> parse_service_models(
    const std::string& spec);

/// Atomic handle to the currently-served model. Thread-safe; cheap to
/// snapshot (one mutex-protected shared_ptr copy).
class ModelProvider {
 public:
  /// Serve `model` as handed in; nothing is watched, so poll_and_reload()
  /// is a no-op.
  explicit ModelProvider(std::shared_ptr<core::DiagNetModel> model,
                         std::uint64_t checksum = 0);

  /// Load the general bundle at `path` and merge every head bundle in
  /// `heads` onto it, recording each file's mtime for poll_and_reload().
  /// Any load or merge failure is returned as-is (nothing is served).
  static util::StatusOr<std::shared_ptr<ModelProvider>> from_file(
      const std::string& path, const data::FeatureSpace& fs,
      std::vector<ServiceModelSpec> heads = {});

  /// The model new batches should use. Never null.
  std::shared_ptr<core::DiagNetModel> current() const;

  /// Atomically publish a new model with its payload checksum (0 when it
  /// came from no bundle). In-flight users of the old snapshot are
  /// unaffected (shared ownership keeps it alive).
  void swap(std::shared_ptr<core::DiagNetModel> next,
            std::uint64_t checksum = 0);

  /// Re-stat every loaded bundle file. When any is newer than the last
  /// load (or last attempt), rebuild the whole merge and publish it with
  /// one generation bump; returns true when a swap happened. A missing
  /// file (mid-rename during an atomic publish) is a no-op. On failure
  /// the current model keeps serving — a bad bundle can never take down a
  /// serving process — *status says why (OK on no-op), and the attempt is
  /// remembered so the broken file is not re-parsed until its next write.
  bool poll_and_reload(util::Status* status);

  /// Generation counter: starts at 1, +1 per successful swap/reload.
  std::uint64_t generation() const;

  /// Payload checksum of the model behind current(), so statsz can tell
  /// an operator which trained weights a process serves: the general
  /// bundle's registry checksum, with each (service id, head checksum)
  /// pair FNV-folded onto it when heads are merged. 0 for a model handed
  /// in directly.
  std::uint64_t checksum() const;

 private:
  struct Loaded {
    std::shared_ptr<core::DiagNetModel> model;
    std::uint64_t checksum = 0;
    std::vector<std::filesystem::file_time_type> mtimes;  // general first
  };

  /// Load the general bundle at `path` and merge `heads` onto it. Every
  /// file is stat'ed into `out.mtimes` before any is read, so a write that
  /// lands mid-load is seen by the next poll.
  static util::Status load(const std::string& path,
                           const std::vector<ServiceModelSpec>& heads,
                           const data::FeatureSpace& fs, Loaded& out);

  std::string path_;  // empty: nothing to watch
  std::vector<ServiceModelSpec> heads_;
  const data::FeatureSpace* fs_ = nullptr;

  mutable std::mutex mu_;
  std::shared_ptr<core::DiagNetModel> model_;
  std::uint64_t generation_ = 1;
  std::uint64_t checksum_ = 0;
  std::vector<std::filesystem::file_time_type> mtimes_;
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
