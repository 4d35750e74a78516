// The shared experiment pipeline every bench binary drives:
//   simulate -> calibrate QoE -> generate campaign -> split (hidden
//   landmarks) -> train DiagNet (general + per-service specialised) and
//   both baselines -> rank test samples.
//
// One Pipeline object corresponds to one of the paper's experimental runs;
// benches vary the PipelineConfig (client diversity for Fig. 8, fixed
// simultaneous faults for Fig. 10, component toggles for ablations).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bayes/naive_bayes.h"
#include "core/diagnet.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "netsim/simulator.h"

namespace diagnet::eval {

enum class ModelKind { DiagNet = 0, RandomForest = 1, NaiveBayes = 2 };
constexpr std::size_t kModelCount = 3;
const char* model_name(ModelKind kind);

struct PipelineConfig {
  data::CampaignConfig campaign;
  data::SplitConfig split;
  core::DiagNetConfig diagnet = core::DiagNetConfig::defaults();
  forest::ForestConfig rf_baseline;  // Table I defaults applied in ctor
  bayes::NaiveBayesConfig nb_baseline;
  /// Train one specialised DiagNet model per service (the paper evaluates
  /// with specialised models, §IV-A(c)).
  bool train_specialized = true;
  std::uint64_t seed = 42;

  static PipelineConfig defaults();
  /// A reduced-size configuration for unit/integration tests.
  static PipelineConfig small();
};

class Pipeline {
 public:
  explicit Pipeline(const PipelineConfig& config);

  const PipelineConfig& config() const { return config_; }
  const netsim::Simulator& simulator() const { return sim_; }
  const data::FeatureSpace& feature_space() const { return fs_; }
  const data::DataSplit& split() const { return split_; }
  core::DiagNetModel& diagnet() { return diagnet_; }
  const forest::ExtensibleForest& rf_baseline() const { return rf_; }
  const bayes::ExtensibleNaiveBayes& nb_baseline() const { return nb_; }
  const nn::TrainingHistory& general_history() const {
    return general_history_;
  }
  const std::map<std::size_t, nn::TrainingHistory>& specialization_history()
      const {
    return specialization_history_;
  }

  /// Indices (into split().test.samples) of the faulty test samples,
  /// partitioned by whether the cause sits near a hidden ("new") landmark.
  std::vector<std::size_t> faulty_test_indices() const;
  std::vector<std::size_t> faulty_test_indices(bool cause_new) const;

  /// Ranked cause list produced by a model for one test sample. DiagNet
  /// uses the sample's specialised service model when available.
  std::vector<std::size_t> rank(ModelKind kind, std::size_t test_index);

  /// Ranked cause lists for many test samples at once; result i corresponds
  /// to test_indices[i] and is bit-identical to rank(kind, test_indices[i]).
  /// DiagNet requests go through the batched diagnosis engine
  /// (core/batch_diagnoser.h) — one network pass per batch instead of one
  /// per sample — which is what the bench binaries and evaluate should use.
  std::vector<std::vector<std::size_t>> rank_all(
      ModelKind kind, const std::vector<std::size_t>& test_indices);

  /// Recall@k of a model over the given test samples (primary causes).
  double recall(ModelKind kind, const std::vector<std::size_t>& test_indices,
                std::size_t k);

  /// Recall@k for several k at once from a single ranking pass (the Fig. 5
  /// recall curves re-rank nothing this way). Returns one value per entry
  /// of `ks`.
  std::vector<double> recall_curve(ModelKind kind,
                                   const std::vector<std::size_t>& test_indices,
                                   const std::vector<std::size_t>& ks);

  /// DiagNet's coarse fault-family prediction (Diagnosis::coarse_argmax)
  /// for many test samples, through the batched diagnosis engine; result
  /// i corresponds to test_indices[i].
  std::vector<std::size_t> coarse_predictions(
      const std::vector<std::size_t>& test_indices);

 private:
  /// Batched DiagNet diagnosis of test samples; throws on any error.
  std::vector<core::DiagnoseResponse> diagnose_all(
      const std::vector<std::size_t>& test_indices);

  PipelineConfig config_;
  netsim::Simulator sim_;
  data::FeatureSpace fs_;
  data::Dataset full_;
  data::DataSplit split_;
  core::DiagNetModel diagnet_;
  forest::ExtensibleForest rf_;
  bayes::ExtensibleNaiveBayes nb_;
  data::Normalizer baseline_normalizer_;
  nn::TrainingHistory general_history_;
  std::map<std::size_t, nn::TrainingHistory> specialization_history_;
};

/// Sort causes by decreasing score (stable: ties resolve to lower index).
std::vector<std::size_t> ranking_from_scores(const std::vector<double>& scores);

}  // namespace diagnet::eval
