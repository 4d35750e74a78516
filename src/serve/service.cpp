#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "core/registry.h"
#include "obs/obs.h"
#include "util/require.h"

namespace diagnet::serve {

namespace {
namespace fs = std::filesystem;
using clock = std::chrono::steady_clock;
}  // namespace

// ---------------------------------------------------------------------------
// ModelProvider

ModelProvider::ModelProvider(std::shared_ptr<core::DiagNetModel> model,
                             std::uint64_t checksum)
    : model_(std::move(model)), checksum_(checksum) {
  DIAGNET_REQUIRE_MSG(model_ != nullptr, "ModelProvider needs a model");
}

util::StatusOr<std::shared_ptr<ModelProvider>> ModelProvider::from_file(
    const std::string& path, const data::FeatureSpace& feature_space) {
  core::ModelBundleInfo info;
  auto loaded = core::try_load_model_file(path, feature_space, &info);
  if (!loaded.ok()) return loaded.status();
  auto provider = std::make_shared<ModelProvider>(
      std::shared_ptr<core::DiagNetModel>(std::move(loaded).value()));
  provider->checksum_ = info.checksum;
  std::error_code ec;
  const auto mtime = fs::last_write_time(path, ec);
  if (!ec) {
    provider->last_mtime_ = mtime;
    provider->has_mtime_ = true;
  }
  return provider;
}

std::shared_ptr<core::DiagNetModel> ModelProvider::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_;
}

void ModelProvider::swap(std::shared_ptr<core::DiagNetModel> next) {
  DIAGNET_REQUIRE_MSG(next != nullptr, "cannot swap in a null model");
  std::lock_guard<std::mutex> lock(mu_);
  model_ = std::move(next);
  ++generation_;
  DIAGNET_COUNT("serve.model_swaps");
}

void ModelProvider::swap(std::shared_ptr<core::DiagNetModel> next,
                         std::uint64_t checksum) {
  DIAGNET_REQUIRE_MSG(next != nullptr, "cannot swap in a null model");
  std::lock_guard<std::mutex> lock(mu_);
  model_ = std::move(next);
  checksum_ = checksum;
  ++generation_;
  DIAGNET_COUNT("serve.model_swaps");
}

util::Status ModelProvider::reload_from(const std::string& path,
                                        const data::FeatureSpace& fs) {
  core::ModelBundleInfo info;
  auto loaded = core::try_load_model_file(path, fs, &info);
  if (!loaded.ok()) return loaded.status();
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  swap(std::move(loaded).value());
  std::lock_guard<std::mutex> lock(mu_);
  checksum_ = info.checksum;
  if (!ec) {
    last_mtime_ = mtime;
    has_mtime_ = true;
  }
  return {};
}

bool ModelProvider::poll_and_reload(const std::string& path,
                                    const data::FeatureSpace& fs,
                                    util::Status* status) {
  *status = util::Status();
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) {
    // A transiently missing file (e.g. mid-rename during an atomic
    // publish) is not an error; the current model keeps serving.
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (has_mtime_ && mtime <= last_mtime_) return false;
  }
  *status = reload_from(path, fs);
  if (!status->ok()) {
    // Remember the bad bundle's mtime so a broken file is not re-parsed
    // every poll tick; the next *newer* write retries.
    std::lock_guard<std::mutex> lock(mu_);
    last_mtime_ = mtime;
    has_mtime_ = true;
    return false;
  }
  return true;
}

std::uint64_t ModelProvider::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

std::uint64_t ModelProvider::checksum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checksum_;
}

// ---------------------------------------------------------------------------
// DiagnosisService

DiagnosisService::DiagnosisService(std::shared_ptr<ModelProvider> models,
                                   ServiceConfig config)
    : models_(std::move(models)),
      config_(config),
      pool_(config.worker_threads == 0 ? 1 : config.worker_threads) {
  DIAGNET_REQUIRE_MSG(models_ != nullptr, "DiagnosisService needs models");
  DIAGNET_REQUIRE(config_.max_batch > 0);
  DIAGNET_REQUIRE(config_.queue_capacity > 0);
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

DiagnosisService::~DiagnosisService() { stop(); }

DiagnosisService::Pending DiagnosisService::make_pending(
    core::DiagnoseRequest request, double deadline_ms,
    std::uint64_t request_id) {
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = clock::now();
  pending.request_id = request_id;
  pending.has_deadline = deadline_ms > 0.0;  // NaN compares false: no deadline
  if (pending.has_deadline) {
    // Cap at ~10 years: the value is client-controlled, and an unbounded
    // double would overflow the int64 microsecond cast (UB) and the
    // time_point addition below.
    constexpr double kMaxDeadlineMs = 3.2e11;
    const double clamped = std::min(deadline_ms, kMaxDeadlineMs);
    pending.deadline =
        pending.enqueued +
        std::chrono::microseconds(static_cast<std::int64_t>(clamped * 1000.0));
  } else {
    pending.deadline = clock::time_point::max();
  }
  return pending;
}

std::future<core::DiagnoseResponse> DiagnosisService::submit(
    core::DiagnoseRequest request, double deadline_ms) {
  Pending pending =
      make_pending(std::move(request), deadline_ms,
                   next_request_id_.fetch_add(1, std::memory_order_relaxed));
  std::future<core::DiagnoseResponse> future =
      pending.promise.get_future();
  enqueue(std::move(pending));
  return future;
}

void DiagnosisService::submit(core::DiagnoseRequest request,
                              double deadline_ms, Completion done) {
  Pending pending =
      make_pending(std::move(request), deadline_ms,
                   next_request_id_.fetch_add(1, std::memory_order_relaxed));
  pending.done = std::move(done);
  enqueue(std::move(pending));
}

void DiagnosisService::enqueue(Pending pending) {
  const auto reject = [&](util::Status status) {
    core::DiagnoseResponse response;
    response.status = std::move(status);
    // Rejections carry the assigned id too, so a client-side log line can
    // still be matched against server-side telemetry.
    response.trace.request_id = pending.request_id;
    pending.resolve(std::move(response));
  };

  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    ++stats_.rejected;
    lock.unlock();
    DIAGNET_COUNT("serve.rejected.stopping");
    reject(util::Status::unavailable("server is stopping"));
    return;
  }
  if (queue_.size() >= config_.queue_capacity) {
    ++stats_.rejected;
    lock.unlock();
    DIAGNET_COUNT("serve.rejected.queue_full");
    reject(util::Status::resource_exhausted(
        "queue full (" + std::to_string(config_.queue_capacity) +
        " requests waiting)"));
    return;
  }
  ++stats_.accepted;
  queue_.push_back(std::move(pending));
  DIAGNET_GAUGE_SET("serve.queue_depth", queue_.size());
  lock.unlock();
  DIAGNET_COUNT("serve.accepted");
  cv_.notify_one();
}

void DiagnosisService::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // stop_mu_ serialises the join so concurrent stop() calls (user +
  // destructor, or a signal watcher) are safe.
  std::lock_guard<std::mutex> join_lock(stop_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

bool DiagnosisService::stopping() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stopping_;
}

DiagnosisService::Stats DiagnosisService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t DiagnosisService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void DiagnosisService::dispatch_loop() {
  while (true) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty() && stopping_) return;

      // Batch-forming window: from the oldest waiting request's arrival,
      // wait at most max_delay_us for the batch to fill. A full batch or
      // a stop request cuts the wait short. While draining, batches form
      // immediately (the drain should finish, not linger).
      const auto window_end =
          queue_.front().enqueued +
          std::chrono::microseconds(config_.max_delay_us);
      cv_.wait_until(lock, window_end, [&] {
        return queue_.size() >= config_.max_batch || stopping_;
      });

      const std::size_t take = std::min(queue_.size(), config_.max_batch);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      stats_.batches += 1;
      DIAGNET_GAUGE_SET("serve.queue_depth", queue_.size());
    }
    run_batch(std::move(batch), clock::now());
  }
}

void DiagnosisService::run_batch(std::vector<Pending> batch,
                                 clock::time_point formed) {
  DIAGNET_SPAN("serve.batch");
  in_flight_batches_.fetch_add(1, std::memory_order_relaxed);
  struct InFlightGuard {
    std::atomic<std::uint64_t>& counter;
    ~InFlightGuard() { counter.fetch_sub(1, std::memory_order_relaxed); }
  } in_flight_guard{in_flight_batches_};
  const auto now = formed;

  // Deadline shedding: anything already past its deadline is answered
  // without occupying a batch slot or a network pass.
  std::vector<Pending> live;
  live.reserve(batch.size());
  std::uint64_t shed = 0;
  for (Pending& pending : batch) {
    if (pending.has_deadline && pending.deadline < now) {
      core::DiagnoseResponse response;
      response.status = util::Status::deadline_exceeded(
          "deadline passed before dispatch");
      response.trace.request_id = pending.request_id;
      pending.resolve(std::move(response));
      ++shed;
      continue;
    }
    live.push_back(std::move(pending));
  }
  if (shed > 0) {
    DIAGNET_COUNT_N("serve.shed", shed);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.shed += shed;
  }
  if (live.empty()) return;

  DIAGNET_OBSERVE("serve.batch.size", static_cast<double>(live.size()));

  // One model snapshot per batch: a hot-swap that lands mid-batch takes
  // effect on the next batch, and shared ownership keeps this snapshot
  // alive until the batch completes.
  const std::shared_ptr<core::DiagNetModel> model = models_->current();
  const std::uint64_t model_generation = models_->generation();
  core::BatchDiagnoserConfig batch_config;
  batch_config.batch_size = config_.max_batch;
  batch_config.pool = &pool_;

  std::vector<core::DiagnoseRequest> requests;
  requests.reserve(live.size());
  for (Pending& pending : live)
    requests.push_back(std::move(pending.request));

  const auto inference_start = clock::now();
  std::vector<core::DiagnoseResponse> responses;
  {
    DIAGNET_SPAN("serve.batch.inference");
    try {
      const core::BatchDiagnoser batcher(*model, batch_config);
      responses = batcher.run(requests);
    } catch (const std::exception& e) {
      // A whole-batch failure (programming error surfaced by REQUIRE) must
      // still answer every caller — an online server cannot drop futures.
      core::DiagnoseResponse failure;
      failure.status = util::Status::internal(e.what());
      responses.assign(live.size(), failure);
    }
  }
  const auto inference_end = clock::now();
  const double inference_us =
      std::chrono::duration<double, std::micro>(inference_end -
                                                inference_start)
          .count();
  const double assembly_us =
      std::chrono::duration<double, std::micro>(inference_start - formed)
          .count();
  DIAGNET_OBSERVE("serve.inference_ms", inference_us / 1000.0);

  DIAGNET_SPAN("serve.batch.write_back");
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const auto stamp = clock::now();
    core::RequestTrace& trace = responses[i].trace;
    trace.request_id = live[i].request_id;
    trace.queue_us =
        std::chrono::duration<double, std::micro>(formed - live[i].enqueued)
            .count();
    trace.assembly_us = assembly_us;
    trace.inference_us = inference_us;
    trace.write_back_us =
        std::chrono::duration<double, std::micro>(stamp - inference_end)
            .count();
    trace.batch_size = live.size();
    trace.model_generation = model_generation;
    const double latency_ms =
        std::chrono::duration<double, std::milli>(stamp - live[i].enqueued)
            .count();
    DIAGNET_OBSERVE("serve.latency_ms", latency_ms);
    DIAGNET_OBSERVE("serve.queue_wait_ms", trace.queue_us / 1000.0);
    completed += responses[i].ok() ? 1 : 0;
    live[i].resolve(std::move(responses[i]));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.completed += completed;
  }
}

}  // namespace diagnet::serve
