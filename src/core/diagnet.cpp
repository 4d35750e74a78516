#include "core/diagnet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/batch_diagnoser.h"
#include "core/ensemble.h"
#include "core/score_weighting.h"
#include "obs/obs.h"
#include "util/require.h"
#include "util/rng.h"

namespace diagnet::core {

DiagNetConfig DiagNetConfig::defaults() {
  DiagNetConfig config;
  // Table I: f = 24 filters over k = 5 metrics, Ω = {min, max, avg, var,
  // p10..p90}, hidden layers 512 and 128, c = 7 coarse families,
  // SGD/Nesterov lr = 0.05, decay = 0.001; RF with 50 trees, depth 10.
  config.coarse.filters = 24;
  config.coarse.pool_ops = nn::default_pool_ops();
  config.coarse.hidden = {512, 128};
  config.coarse.classes = netsim::kFaultFamilies;
  config.trainer.sgd.learning_rate = 0.05;
  config.trainer.sgd.weight_decay = 0.001;
  config.trainer.max_epochs = 40;
  config.trainer.patience = 4;
  config.specialization = config.trainer;
  config.specialization.max_epochs = 15;
  config.specialization.patience = 2;
  // Starting from the general model's weights, the head is almost right
  // already: only count clear improvements so convergence is declared as
  // soon as the validation loss plateaus (paper Fig. 9b: < 5 epochs).
  config.specialization.min_delta = 0.003;
  config.auxiliary.n_estimators = 50;
  config.auxiliary.tree.max_depth = 10;
  return config;
}

DiagNetModel::DiagNetModel(const data::FeatureSpace& fs, DiagNetConfig config)
    : fs_(&fs), config_(std::move(config)) {
  config_.coarse.features_per_landmark = fs.metrics_per_landmark();
  config_.coarse.local_features = fs.local_count();
}

nn::TrainingHistory DiagNetModel::train_general(const data::Dataset& train) {
  DIAGNET_SPAN("diagnet.train_general");
  DIAGNET_REQUIRE(!train.samples.empty());

  normalizer_.fit(train, *fs_);

  // Record the unknown feature set U: features of landmarks absent from
  // the training fleet.
  unknown_features_.clear();
  const std::vector<bool> available = train.feature_available(*fs_);
  for (std::size_t j = 0; j < fs_->total(); ++j)
    if (!available[j]) unknown_features_.push_back(j);

  // Coarse network.
  util::Rng rng(config_.seed);
  general_ = std::make_unique<nn::CoarseNet>(config_.coarse, rng);
  const nn::CoarseDataset coarse =
      data::encode_coarse(train, *fs_, normalizer_);
  nn::TrainerConfig trainer = config_.trainer;
  trainer.seed = config_.seed ^ 0x7ea1ULL;
  nn::TrainingHistory history = train_coarse(*general_, coarse, trainer);

  // Auxiliary extensible forest over zero-filled flat vectors.
  const tensor::Matrix flat = data::encode_flat(train, *fs_, normalizer_);
  const std::vector<std::size_t> labels =
      data::cause_labels(train, forest::ExtensibleForest::kNominal);
  auxiliary_.fit(flat, labels, fs_->total(), config_.auxiliary,
                 config_.seed ^ 0xf0e5ULL);

  specialized_.clear();
  return history;
}

nn::TrainingHistory DiagNetModel::specialize(std::size_t service,
                                             const data::Dataset& train) {
  DIAGNET_SPAN("diagnet.specialize");
  DIAGNET_REQUIRE_MSG(trained(), "train_general() first");

  data::Dataset subset;
  subset.landmark_available = train.landmark_available;
  for (const data::Sample& sample : train.samples)
    if (sample.service == service) subset.samples.push_back(sample);
  DIAGNET_REQUIRE_MSG(subset.samples.size() > 10,
                      "too few samples to specialise this service");

  // The head shares the general's representation and trains only its own
  // tail, so the general model cannot change while it trains.
  auto head = general_->head();
  const nn::CoarseDataset coarse =
      data::encode_coarse(subset, *fs_, normalizer_);
  nn::TrainerConfig trainer = config_.specialization;
  trainer.seed = config_.seed ^ (0x5e77ULL + service);
  nn::TrainingHistory history = train_coarse(*head, coarse, trainer);
  specialized_[service] = std::move(head);
  return history;
}

bool DiagNetModel::has_specialized(std::size_t service) const {
  return specialized_.count(service) > 0;
}

std::vector<std::size_t> DiagNetModel::specialized_services() const {
  std::vector<std::size_t> out;
  out.reserve(specialized_.size());
  for (const auto& [service, net] : specialized_) out.push_back(service);
  return out;
}

util::Status DiagNetModel::adopt_specialized(std::size_t service,
                                             DiagNetModel& donor) {
  if (!trained() || !donor.trained())
    return util::Status::failed_precondition(
        "adopt_specialized needs two trained models");
  const auto it = donor.specialized_.find(service);
  if (it == donor.specialized_.end())
    return util::Status::invalid_argument(
        "donor bundle has no specialized head for service " +
        std::to_string(service));
  if (fs_->total() != donor.fs_->total() ||
      fs_->landmark_count() != donor.fs_->landmark_count())
    return util::Status::failed_precondition(
        "donor bundle was built for a different feature space");
  // The donor's head runs on its general's representation; it must be ours
  // bit for bit before the head can run on our objects instead.
  auto head = it->second->config() == general_->config()
                  ? general_->head(it->second->save_parameters())
                  : nullptr;
  if (!head)
    return util::Status::failed_precondition(
        "specialized head for service " + std::to_string(service) +
        " was not fine-tuned on this model's frozen representation "
        "(LandPooling and first hidden layer; fine-tune with --freeze-kernel "
        "from the same general bundle)");
  specialized_[service] = std::move(head);
  donor.specialized_.erase(it);
  return util::Status();
}

nn::CoarseNet& DiagNetModel::general_net() {
  DIAGNET_REQUIRE(trained());
  return *general_;
}

nn::CoarseNet& DiagNetModel::service_net(std::size_t service) {
  DIAGNET_REQUIRE(trained());
  const auto it = specialized_.find(service);
  return it != specialized_.end() ? *it->second : *general_;
}

util::Status DiagNetModel::validate(const DiagnoseRequest& request) const {
  if (!trained())
    return util::Status::failed_precondition("model is not trained");
  if (request.features.size() != fs_->total())
    return util::Status::invalid_argument(
        "request has " + std::to_string(request.features.size()) +
        " features; this deployment has " + std::to_string(fs_->total()));
  if (!request.landmark_available.empty() &&
      request.landmark_available.size() != fs_->landmark_count())
    return util::Status::invalid_argument(
        "landmark mask has " +
        std::to_string(request.landmark_available.size()) +
        " entries; this deployment has " +
        std::to_string(fs_->landmark_count()) + " landmarks");
  if (!request.landmark_available.empty() &&
      std::none_of(request.landmark_available.begin(),
                   request.landmark_available.end(),
                   [](bool available) { return available; }))
    return util::Status::invalid_argument(
        "landmark mask has no available landmark");
  for (std::size_t j = 0; j < request.features.size(); ++j) {
    if (!std::isfinite(request.features[j]))
      return util::Status::invalid_argument(
          "feature " + std::to_string(j) + " is not a finite number");
    // The network computes in fp32: a normalised value past float's range
    // would enter it as inf.
    if (!(std::abs(normalizer_.apply_one(j, request.features[j])) <=
          std::numeric_limits<float>::max()))
      return util::Status::invalid_argument(
          "feature " + std::to_string(j) +
          " normalises outside the float range of the network");
  }
  return {};
}

DiagnoseResponse DiagNetModel::diagnose(const DiagnoseRequest& request) {
  [[maybe_unused]] const auto t0 = std::chrono::steady_clock::now();
  DiagnoseResponse response = BatchDiagnoser(*this).run({request})[0];
  [[maybe_unused]] const double latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  DIAGNET_OBSERVE("diagnose.latency_ms", latency_ms);
  return response;
}

Diagnosis DiagNetModel::complete_diagnosis(
    const AttentionResult& attention,
    const std::vector<double>& raw_features,
    const std::vector<bool>& landmark_available) const {
  const ScoredRow row{&attention, &raw_features};
  return std::move(complete_diagnosis({&row, 1}, landmark_available)[0]);
}

std::vector<Diagnosis> DiagNetModel::complete_diagnosis(
    std::span<const ScoredRow> rows,
    const std::vector<bool>& landmark_available) const {
  const std::size_t n = rows.size();
  const std::size_t m = fs_->total();

  // Ensemble side: the chunk's flat rows in one buffer, one forest call.
  std::vector<double> alpha;
  if (config_.use_ensemble && n > 0) {
    DIAGNET_COUNT_N("diagnet.ensemble.blends", n);
    std::vector<bool> feature_avail(m, true);
    for (std::size_t j = 0; j < m; ++j)
      if (fs_->is_landmark_feature(j))
        feature_avail[j] = landmark_available[fs_->landmark_of(j)];
    std::vector<double> flat(n * m);
    for (std::size_t r = 0; r < n; ++r) {
      const std::vector<double> z = data::encode_flat_sample(
          *rows[r].raw_features, *fs_, normalizer_, feature_avail);
      std::copy(z.begin(), z.end(), flat.begin() + r * m);
    }
    alpha.resize(n * m);
    auxiliary_.score_rows(flat.data(), n, m, alpha.data());
  }

  std::vector<Diagnosis> out(n);
  for (std::size_t r = 0; r < n; ++r) {
    const AttentionResult& att = *rows[r].attention;
    Diagnosis& diagnosis = out[r];
    diagnosis.coarse_probs = att.coarse_probs;
    diagnosis.coarse_argmax = att.coarse_argmax;

    // Algorithm 1 score weighting.
    diagnosis.attention =
        config_.use_score_weighting
            ? weight_scores(att.gamma, att.coarse_probs, att.coarse_argmax,
                            *fs_)
            : att.gamma;

    // Ensemble averaging with the auxiliary forest.
    if (config_.use_ensemble) {
      diagnosis.scores = ensemble_average(
          diagnosis.attention, std::span<const double>(alpha).subspan(r * m, m),
          unknown_features_, &diagnosis.w_unknown);
    } else {
      diagnosis.scores = diagnosis.attention;
      diagnosis.w_unknown = 1.0;
    }

    // Ranked cause list.
    diagnosis.ranking.resize(diagnosis.scores.size());
    std::iota(diagnosis.ranking.begin(), diagnosis.ranking.end(), 0u);
    std::stable_sort(diagnosis.ranking.begin(), diagnosis.ranking.end(),
                     [&](std::size_t a, std::size_t b) {
                       return diagnosis.scores[a] > diagnosis.scores[b];
                     });
  }
  return out;
}

}  // namespace diagnet::core

namespace diagnet::core {

namespace {
// Bumped from ...0001 when the feature-space schema (landmark count, total
// feature count) was added to the bundle so load() can reject a model
// trained against a different deployment outright.
constexpr std::uint64_t kModelTag = 0xd1a60e7'0002ULL;
}

void DiagNetModel::save(util::BinaryWriter& writer) const {
  DIAGNET_REQUIRE_MSG(trained(), "cannot save an untrained model");
  writer.write_u64(kModelTag);

  // Feature-space schema the model was trained against.
  writer.write_u64(fs_->landmark_count());
  writer.write_u64(fs_->total());

  // Architecture (enough to rebuild the nets).
  const nn::CoarseNetConfig& coarse = config_.coarse;
  writer.write_u64(coarse.features_per_landmark);
  writer.write_u64(coarse.local_features);
  writer.write_u64(coarse.filters);
  std::vector<std::size_t> ops;
  ops.reserve(coarse.pool_ops.size());
  for (nn::PoolOp op : coarse.pool_ops)
    ops.push_back(static_cast<std::size_t>(op));
  writer.write_indices(ops);
  writer.write_indices(coarse.hidden);
  writer.write_u64(coarse.classes);

  // Inference toggles.
  writer.write_bool(config_.use_score_weighting);
  writer.write_bool(config_.use_ensemble);

  // Weights.
  writer.write_doubles(general_->save_parameters());
  writer.write_u64(specialized_.size());
  for (const auto& [service, net] : specialized_) {
    writer.write_u64(service);
    writer.write_doubles(net->save_parameters());
  }

  normalizer_.save(writer);
  auxiliary_.save(writer);
  writer.write_indices(unknown_features_);
}

std::unique_ptr<DiagNetModel> DiagNetModel::load(
    util::BinaryReader& reader, const data::FeatureSpace& fs) {
  reader.expect_u64(kModelTag, "DiagNetModel");

  const auto landmarks = static_cast<std::size_t>(reader.read_u64());
  const auto total = static_cast<std::size_t>(reader.read_u64());
  if (landmarks != fs.landmark_count() || total != fs.total())
    throw std::runtime_error(
        "model was trained for a different deployment (" +
        std::to_string(landmarks) + " landmarks / " + std::to_string(total) +
        " features; this one has " + std::to_string(fs.landmark_count()) +
        " / " + std::to_string(fs.total()) + ")");

  DiagNetConfig config = DiagNetConfig::defaults();
  config.coarse.features_per_landmark =
      static_cast<std::size_t>(reader.read_u64());
  config.coarse.local_features = static_cast<std::size_t>(reader.read_u64());
  config.coarse.filters = static_cast<std::size_t>(reader.read_u64());
  config.coarse.pool_ops.clear();
  for (std::size_t op : reader.read_indices())
    config.coarse.pool_ops.push_back(static_cast<nn::PoolOp>(op));
  config.coarse.hidden = reader.read_indices();
  config.coarse.classes = static_cast<std::size_t>(reader.read_u64());
  config.use_score_weighting = reader.read_bool();
  config.use_ensemble = reader.read_bool();

  if (config.coarse.features_per_landmark != fs.metrics_per_landmark() ||
      config.coarse.local_features != fs.local_count())
    throw std::runtime_error(
        "model registry: feature space does not match the saved model");

  auto model = std::make_unique<DiagNetModel>(fs, config);
  util::Rng rng(0);  // initial weights are immediately overwritten
  model->general_ = std::make_unique<nn::CoarseNet>(config.coarse, rng);
  model->general_->load_parameters(reader.read_doubles());

  const std::uint64_t specialized_count = reader.read_u64();
  for (std::uint64_t i = 0; i < specialized_count; ++i) {
    const auto service = static_cast<std::size_t>(reader.read_u64());
    // Each head's blob repeats the general's frozen representation; the
    // head is bound to the general's objects, so the copy must match.
    auto head = model->general_->head(reader.read_doubles());
    if (!head)
      throw std::runtime_error(
          "model registry: specialized head for service " +
          std::to_string(service) +
          " does not carry the general model's frozen representation");
    model->specialized_[service] = std::move(head);
  }

  model->normalizer_.load(reader, fs);
  model->auxiliary_.load(reader);
  // The forest reads and scores over the feature space: splits index a
  // sample of fs.total() features, and its causes are those features.
  if (model->auxiliary_.feature_bound() > fs.total() ||
      model->auxiliary_.total_causes() != fs.total())
    throw std::runtime_error(
        "model registry: auxiliary forest does not fit the feature space");
  model->unknown_features_ = reader.read_indices();
  return model;
}

}  // namespace diagnet::core
