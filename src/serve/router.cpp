#include "serve/router.h"

#include <algorithm>
#include <utility>

#include "core/registry.h"
#include "obs/obs.h"
#include "util/require.h"

namespace diagnet::serve {

namespace {
namespace fs = std::filesystem;

/// Fold one 64-bit word into an FNV-1a style running hash, so the merged
/// model's checksum deterministically combines every bundle's payload
/// checksum (and the service id it is routed to).
std::uint64_t fold_checksum(std::uint64_t h, std::uint64_t word) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (i * 8)) & 0xffULL;
    h *= kPrime;
  }
  return h;
}

}  // namespace

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

ModelRouter::ModelRouter(Config config, const data::FeatureSpace& fs)
    : config_(std::move(config)), fs_(&fs) {}

util::StatusOr<std::shared_ptr<ModelRouter>> ModelRouter::create(
    const Config& config, const data::FeatureSpace& fs) {
  std::shared_ptr<ModelRouter> router(new ModelRouter(config, fs));
  Merged merged;
  util::Status status = router->build(merged);
  if (!status.ok()) return status;
  router->provider_ =
      std::make_shared<ModelProvider>(std::move(merged.model), merged.checksum);
  router->last_mtimes_ = std::move(merged.mtimes);
  router->has_mtimes_ = true;
  return router;
}

util::Status ModelRouter::build(Merged& out) const {
  out.mtimes.clear();
  const auto stat = [&](const std::string& path) {
    std::error_code ec;
    const auto mtime = fs::last_write_time(path, ec);
    out.mtimes.push_back(ec ? fs::file_time_type{} : mtime);
  };

  core::ModelBundleInfo info;
  stat(config_.default_path);
  auto base = core::try_load_model_file(config_.default_path, *fs_, &info);
  if (!base.ok()) return base.status();
  std::shared_ptr<core::DiagNetModel> model(std::move(base).value());
  std::uint64_t checksum = fold_checksum(14695981039346656037ULL,
                                         info.checksum);

  for (const ServiceModelSpec& spec : config_.services) {
    stat(spec.path);
    core::ModelBundleInfo donor_info;
    auto donor = core::try_load_model_file(spec.path, *fs_, &donor_info);
    if (!donor.ok()) return donor.status();
    util::Status adopted =
        model->adopt_specialized(spec.service, *std::move(donor).value());
    if (!adopted.ok()) return adopted;
    checksum = fold_checksum(checksum, spec.service);
    checksum = fold_checksum(checksum, donor_info.checksum);
  }

  out.model = std::move(model);
  out.checksum = checksum;
  return {};
}

std::vector<std::size_t> ModelRouter::services() const {
  return provider_->current()->specialized_services();
}

bool ModelRouter::poll_and_reload(util::Status* status) {
  *status = util::Status();

  // Stat every watched file. A transiently missing file (mid-rename during
  // an atomic publish) is not a change; the current merge keeps serving.
  std::vector<fs::file_time_type> mtimes;
  mtimes.reserve(1 + config_.services.size());
  const auto stat_or_bail = [&](const std::string& path) {
    std::error_code ec;
    const auto mtime = fs::last_write_time(path, ec);
    if (ec) return false;
    mtimes.push_back(mtime);
    return true;
  };
  if (!stat_or_bail(config_.default_path)) return false;
  for (const ServiceModelSpec& spec : config_.services)
    if (!stat_or_bail(spec.path)) return false;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (has_mtimes_ && mtimes.size() == last_mtimes_.size()) {
      bool newer = false;
      for (std::size_t i = 0; i < mtimes.size(); ++i)
        newer = newer || mtimes[i] > last_mtimes_[i];
      if (!newer) return false;
    }
  }

  // Something changed: rebuild the whole merge, then publish it in one
  // swap so no batch ever sees a partial set of heads.
  Merged merged;
  *status = build(merged);
  std::lock_guard<std::mutex> lock(mu_);
  // Remember the attempted mtimes either way, so a broken bundle is not
  // re-parsed every poll tick; the next newer write retries.
  last_mtimes_ = std::move(merged.mtimes);
  has_mtimes_ = true;
  if (!status->ok()) return false;
  provider_->swap(std::move(merged.model), merged.checksum);
  DIAGNET_COUNT("serve.router_reloads");
  return true;
}

}  // namespace diagnet::serve
