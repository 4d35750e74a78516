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

/// Fold one 64-bit word into an FNV-1a style running hash, so a merged
/// model's checksum deterministically combines every bundle's payload
/// checksum (and the service id each head is routed to).
std::uint64_t fold_checksum(std::uint64_t h, std::uint64_t word) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (i * 8)) & 0xffULL;
    h *= kPrime;
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// ModelProvider

util::StatusOr<std::vector<ServiceModelSpec>> parse_service_models(
    const std::string& spec) {
  std::vector<ServiceModelSpec> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) {
      if (spec.empty()) break;
      return util::Status::invalid_argument(
          "--service-models has an empty entry");
    }
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == entry.size())
      return util::Status::invalid_argument(
          "--service-models entry '" + entry + "' is not id:path");
    const std::string id = entry.substr(0, colon);
    if (id.find_first_not_of("0123456789") != std::string::npos)
      return util::Status::invalid_argument(
          "--service-models entry '" + entry + "' has a non-numeric id");
    ServiceModelSpec parsed;
    try {
      parsed.service = std::stoull(id);
    } catch (const std::exception&) {
      return util::Status::invalid_argument(
          "--service-models id '" + id + "' is out of range");
    }
    parsed.path = entry.substr(colon + 1);
    for (const ServiceModelSpec& seen : out)
      if (seen.service == parsed.service)
        return util::Status::invalid_argument(
            "--service-models routes service " + id + " twice");
    out.push_back(std::move(parsed));
  }
  return out;
}

ModelProvider::ModelProvider(std::shared_ptr<core::DiagNetModel> model,
                             std::uint64_t checksum)
    : model_(std::move(model)), checksum_(checksum) {
  DIAGNET_REQUIRE_MSG(model_ != nullptr, "ModelProvider needs a model");
}

util::StatusOr<std::shared_ptr<ModelProvider>> ModelProvider::from_file(
    const std::string& path, const data::FeatureSpace& feature_space,
    std::vector<ServiceModelSpec> heads) {
  Loaded loaded;
  if (util::Status status = load(path, heads, feature_space, loaded);
      !status.ok())
    return status;
  auto provider = std::make_shared<ModelProvider>(std::move(loaded.model),
                                                  loaded.checksum);
  provider->path_ = path;
  provider->heads_ = std::move(heads);
  provider->fs_ = &feature_space;
  provider->mtimes_ = std::move(loaded.mtimes);
  return provider;
}

util::Status ModelProvider::load(const std::string& path,
                                 const std::vector<ServiceModelSpec>& heads,
                                 const data::FeatureSpace& feature_space,
                                 Loaded& out) {
  out.mtimes.clear();
  const auto stat = [&](const std::string& file) {
    std::error_code ec;
    const auto mtime = fs::last_write_time(file, ec);
    out.mtimes.push_back(ec ? fs::file_time_type{} : mtime);
  };
  stat(path);
  for (const ServiceModelSpec& head : heads) stat(head.path);

  core::ModelBundleInfo info;
  auto general = core::try_load_model_file(path, feature_space, &info);
  if (!general.ok()) return general.status();
  std::shared_ptr<core::DiagNetModel> model(std::move(general).value());
  std::uint64_t checksum = info.checksum;

  for (const ServiceModelSpec& head : heads) {
    core::ModelBundleInfo head_info;
    auto donor =
        core::try_load_model_file(head.path, feature_space, &head_info);
    if (!donor.ok()) return donor.status();
    util::Status adopted =
        model->adopt_specialized(head.service, *std::move(donor).value());
    if (!adopted.ok()) return adopted;
    checksum = fold_checksum(checksum, head.service);
    checksum = fold_checksum(checksum, head_info.checksum);
  }

  out.model = std::move(model);
  out.checksum = checksum;
  return {};
}

std::shared_ptr<core::DiagNetModel> ModelProvider::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_;
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

bool ModelProvider::poll_and_reload(util::Status* status) {
  *status = util::Status();
  if (path_.empty()) return false;

  // Stat every watched file. A transiently missing file (mid-rename during
  // an atomic publish) is not a change; the current model keeps serving.
  std::vector<fs::file_time_type> mtimes;
  mtimes.reserve(1 + heads_.size());
  const auto stat_or_bail = [&](const std::string& path) {
    std::error_code ec;
    const auto mtime = fs::last_write_time(path, ec);
    if (ec) return false;
    mtimes.push_back(mtime);
    return true;
  };
  if (!stat_or_bail(path_)) return false;
  for (const ServiceModelSpec& head : heads_)
    if (!stat_or_bail(head.path)) return false;

  {
    std::lock_guard<std::mutex> lock(mu_);
    bool newer = false;
    for (std::size_t i = 0; i < mtimes.size(); ++i)
      newer = newer || mtimes[i] > mtimes_[i];
    if (!newer) return false;
  }

  // Something changed: rebuild the whole merge, then publish it in one
  // swap so no batch ever sees a partial set of heads.
  Loaded loaded;
  *status = load(path_, heads_, *fs_, loaded);
  {
    // Remember the attempted mtimes either way, so a broken bundle is not
    // re-parsed every poll tick; the next newer write retries.
    std::lock_guard<std::mutex> lock(mu_);
    mtimes_ = std::move(loaded.mtimes);
  }
  if (!status->ok()) return false;
  swap(std::move(loaded.model), loaded.checksum);
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
