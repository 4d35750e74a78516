#include "eval/pipeline.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "core/batch_diagnoser.h"
#include "data/encoding.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/require.h"

namespace diagnet::eval {

namespace {

// Member-initialiser hook: times the simulator construction so the
// "simulate" stage shows up in traces alongside the body stages.
netsim::Simulator make_simulator(std::uint64_t seed) {
  DIAGNET_SPAN("pipeline.simulate");
  return netsim::Simulator::make_default(seed);
}

}  // namespace

const char* model_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::DiagNet: return "DiagNet";
    case ModelKind::RandomForest: return "RandomForest";
    case ModelKind::NaiveBayes: return "NaiveBayes";
  }
  return "?";
}

PipelineConfig PipelineConfig::defaults() {
  PipelineConfig config;
  config.campaign.nominal_samples = 5000;
  config.campaign.fault_samples = 10000;
  config.rf_baseline.n_estimators = 50;
  config.rf_baseline.tree.max_depth = 10;
  return config;
}

PipelineConfig PipelineConfig::small() {
  PipelineConfig config = defaults();
  config.campaign.nominal_samples = 600;
  config.campaign.fault_samples = 1400;
  config.diagnet.trainer.max_epochs = 10;
  config.diagnet.specialization.max_epochs = 6;
  config.diagnet.auxiliary.n_estimators = 15;
  config.rf_baseline.n_estimators = 15;
  return config;
}

Pipeline::Pipeline(const PipelineConfig& config)
    : config_(config),
      sim_(make_simulator(config.seed)),
      fs_(sim_.topology()),
      diagnet_(fs_, config.diagnet) {
  DIAGNET_SPAN("pipeline.build");
  {
    DIAGNET_SPAN("pipeline.calibrate");
    sim_.calibrate_qoe();
  }

  {
    DIAGNET_SPAN("pipeline.generate");
    data::CampaignConfig campaign = config_.campaign;
    campaign.seed = config_.seed ^ 0xca3fULL;
    full_ = data::generate_campaign(sim_, fs_, campaign);
    DIAGNET_GAUGE_SET("pipeline.campaign.samples", full_.size());
  }

  {
    DIAGNET_SPAN("pipeline.split");
    data::SplitConfig split_config = config_.split;
    split_config.seed = config_.seed ^ 0x5b11ULL;
    split_ = data::make_split(full_, fs_, split_config);
  }

  {
    DIAGNET_SPAN("pipeline.train");
    // DiagNet: general model, then one specialised model per service.
    general_history_ = diagnet_.train_general(split_.train);
    DIAGNET_OBSERVE("pipeline.train.wall_ms",
                    general_history_.wall_seconds * 1000.0);
    if (config_.train_specialized) {
      for (std::size_t s = 0; s < sim_.services().size(); ++s) {
        // Skip services with too few training samples (custom campaigns may
        // restrict the service set).
        std::size_t count = 0;
        for (const auto& sample : split_.train.samples)
          count += sample.service == s ? 1 : 0;
        if (count > 50)
          specialization_history_[s] = diagnet_.specialize(s, split_.train);
      }
    }

    // Baselines share one normaliser fitted on the training split.
    baseline_normalizer_.fit(split_.train, fs_);
    const tensor::Matrix flat =
        data::encode_flat(split_.train, fs_, baseline_normalizer_);

    const std::vector<std::size_t> rf_labels =
        data::cause_labels(split_.train, forest::ExtensibleForest::kNominal);
    rf_.fit(flat, rf_labels, fs_.total(), config_.rf_baseline,
            config_.seed ^ 0x4e57ULL);

    const std::vector<std::size_t> nb_labels = data::cause_labels(
        split_.train, bayes::ExtensibleNaiveBayes::kNominal);
    std::vector<std::size_t> families(fs_.total());
    for (std::size_t j = 0; j < fs_.total(); ++j)
      families[j] = data::Normalizer::kind_of(fs_, j);
    nb_.fit(flat, nb_labels, families, split_.train.feature_available(fs_),
            config_.nb_baseline);
  }
}

std::vector<std::size_t> Pipeline::faulty_test_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < split_.test.samples.size(); ++i)
    if (split_.test.samples[i].is_faulty()) out.push_back(i);
  return out;
}

std::vector<std::size_t> Pipeline::faulty_test_indices(bool cause_new) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < split_.test.samples.size(); ++i) {
    const data::Sample& sample = split_.test.samples[i];
    if (!sample.is_faulty()) continue;
    if (split_.cause_is_new(fs_, sample) == cause_new) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> ranking_from_scores(
    const std::vector<double>& scores) {
  // Ties are broken by a pseudo-random permutation derived from the score
  // vector itself (deterministic per input). This matters for the
  // extensible Random Forest: on faults near hidden landmarks its trained
  // classes score ~0 and every never-seen cause receives the same
  // redistributed share — arbitrary index order would hide the "essentially
  // random predictions" the paper reports for this case (§IV-C).
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (double s : scores) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(s));
    std::memcpy(&bits, &s, sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ULL;
  }
  util::Rng rng(h);
  std::vector<double> jitter(scores.size());
  for (auto& j : jitter) j = rng.uniform();

  std::vector<std::size_t> ranking(scores.size());
  std::iota(ranking.begin(), ranking.end(), 0u);
  std::sort(ranking.begin(), ranking.end(),
            [&](std::size_t a, std::size_t b) {
              if (scores[a] != scores[b]) return scores[a] > scores[b];
              return jitter[a] > jitter[b];
            });
  return ranking;
}

std::vector<std::size_t> Pipeline::rank(ModelKind kind,
                                        std::size_t test_index) {
  DIAGNET_SPAN("pipeline.rank");
  DIAGNET_COUNT("pipeline.rank.calls");
  DIAGNET_REQUIRE(test_index < split_.test.samples.size());
  const data::Sample& sample = split_.test.samples[test_index];
  const std::vector<bool>& available = split_.test.landmark_available;

  switch (kind) {
    case ModelKind::DiagNet: {
      core::DiagnoseRequest request;
      request.features = sample.features;
      request.service = sample.service;
      request.landmark_available = available;
      core::DiagnoseResponse response = diagnet_.diagnose(request);
      response.status.throw_if_error();
      return std::move(response.diagnosis.ranking);
    }
    case ModelKind::RandomForest: {
      const std::vector<double> flat = data::encode_flat_sample(
          sample.features, fs_, baseline_normalizer_,
          split_.test.feature_available(fs_));
      return ranking_from_scores(rf_.score_causes(flat));
    }
    case ModelKind::NaiveBayes: {
      const std::vector<double> flat = data::encode_flat_sample(
          sample.features, fs_, baseline_normalizer_,
          split_.test.feature_available(fs_));
      return ranking_from_scores(nb_.score_causes(flat));
    }
  }
  util::require_failed("kind", __FILE__, __LINE__, "unknown model kind");
}

std::vector<std::vector<std::size_t>> Pipeline::rank_all(
    ModelKind kind, const std::vector<std::size_t>& test_indices) {
  DIAGNET_SPAN("pipeline.rank_all");
  if (kind == ModelKind::DiagNet) {
    std::vector<core::DiagnoseResponse> responses = diagnose_all(test_indices);
    std::vector<std::vector<std::size_t>> rankings(responses.size());
    for (std::size_t i = 0; i < responses.size(); ++i)
      rankings[i] = std::move(responses[i].diagnosis.ranking);
    return rankings;
  }
  // The flat-vector baselines are one tree/likelihood evaluation per
  // sample; the per-sample path is already their natural batch shape.
  std::vector<std::vector<std::size_t>> rankings;
  rankings.reserve(test_indices.size());
  for (std::size_t idx : test_indices) rankings.push_back(rank(kind, idx));
  return rankings;
}

double Pipeline::recall(ModelKind kind,
                        const std::vector<std::size_t>& test_indices,
                        std::size_t k) {
  return recall_curve(kind, test_indices, {k}).front();
}

std::vector<double> Pipeline::recall_curve(
    ModelKind kind, const std::vector<std::size_t>& test_indices,
    const std::vector<std::size_t>& ks) {
  const std::vector<std::vector<std::size_t>> rankings =
      rank_all(kind, test_indices);
  std::vector<std::size_t> truths;
  truths.reserve(test_indices.size());
  for (std::size_t idx : test_indices)
    truths.push_back(split_.test.samples[idx].primary_cause);
  std::vector<double> out;
  out.reserve(ks.size());
  for (std::size_t k : ks) out.push_back(recall_at_k(rankings, truths, k));
  return out;
}

std::vector<std::size_t> Pipeline::coarse_predictions(
    const std::vector<std::size_t>& test_indices) {
  const std::vector<core::DiagnoseResponse> responses =
      diagnose_all(test_indices);
  std::vector<std::size_t> families(responses.size());
  for (std::size_t i = 0; i < responses.size(); ++i)
    families[i] = responses[i].diagnosis.coarse_argmax;
  return families;
}

std::vector<core::DiagnoseResponse> Pipeline::diagnose_all(
    const std::vector<std::size_t>& test_indices) {
  std::vector<core::DiagnoseRequest> requests(test_indices.size());
  for (std::size_t i = 0; i < test_indices.size(); ++i) {
    DIAGNET_REQUIRE(test_indices[i] < split_.test.samples.size());
    const data::Sample& sample = split_.test.samples[test_indices[i]];
    requests[i].features = sample.features;
    requests[i].service = sample.service;
    requests[i].landmark_available = split_.test.landmark_available;
  }
  std::vector<core::DiagnoseResponse> responses =
      core::BatchDiagnoser(diagnet_).run(requests);
  for (const core::DiagnoseResponse& response : responses)
    response.status.throw_if_error();
  return responses;
}

}  // namespace diagnet::eval
