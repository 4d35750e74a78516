// Per-service specialized-model router for `diagnet serve`.
//
// A serving process can load more than one bundle: a default bundle (the
// general model, possibly with baked-in specialized heads) plus any number
// of per-service head bundles produced by `diagnet train --freeze-kernel
// --service <id>`. The router merges them into ONE serving model — each
// donor's specialized head is moved in via DiagNetModel::adopt_specialized,
// which verifies the donor's general network carries a bit-identical frozen
// representation (LandPooling and first hidden layer) and binds the head
// to the serving model's own — and publishes the merge through the
// ModelProvider in a single generation bump. Because every merged head
// runs on the general's one LandPooling object, the batched engine pools
// a mixed-service micro-batch once and fans out only the per-service FC
// stacks (core/batch_diagnoser.h).
//
// Hot reload follows the same all-or-nothing rule: poll_and_reload()
// watches every bundle file, and when any of them changes it rebuilds the
// whole merge from scratch and swaps once. A batch therefore never sees a
// half-updated set of heads — generations are atomic across all services,
// extending the single-bundle hot-swap guarantee ("requests are never
// mixed across models within a batch") to the multi-bundle case. A broken
// bundle never takes down serving: the previous merge keeps serving and
// the Status says why.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "data/feature_space.h"
#include "serve/service.h"
#include "util/status.h"

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

class ModelRouter {
 public:
  struct Config {
    std::string default_path;                 // the base (general) bundle
    std::vector<ServiceModelSpec> services;   // per-service head bundles
  };

  /// Load every bundle, merge, and build the provider the service reads
  /// from. Any load/merge failure is returned as-is (nothing is served).
  static util::StatusOr<std::shared_ptr<ModelRouter>> create(
      const Config& config, const data::FeatureSpace& fs);

  /// The provider serving the current merge. Never null.
  const std::shared_ptr<ModelProvider>& provider() const { return provider_; }

  /// Services with a routed specialized head in the current merge.
  std::vector<std::size_t> services() const;

  /// Re-stat every bundle file; when any is newer than the last successful
  /// (or last attempted) merge, rebuild the full merge and publish it with
  /// one generation bump. Returns true when a swap happened; on failure the
  /// previous merge keeps serving and *status says why (OK on no-op).
  bool poll_and_reload(util::Status* status);

 private:
  struct Merged {
    std::shared_ptr<core::DiagNetModel> model;
    std::uint64_t checksum = 0;
    std::vector<std::filesystem::file_time_type> mtimes;  // per watched file
  };

  ModelRouter(Config config, const data::FeatureSpace& fs);

  /// Load default + per-service bundles and merge. Stats every file into
  /// `out.mtimes` (default bundle first, then services in config order).
  util::Status build(Merged& out) const;

  Config config_;
  const data::FeatureSpace* fs_;
  std::shared_ptr<ModelProvider> provider_;

  mutable std::mutex mu_;
  std::vector<std::filesystem::file_time_type> last_mtimes_;
  bool has_mtimes_ = false;
};

}  // namespace diagnet::serve
