// The DiagNet root-cause-analysis model: the paper's full pipeline behind
// one façade.
//
//   train_general()  — fit the normaliser, train the coarse network on all
//                      services' samples, train the auxiliary extensible
//                      Random Forest (§III-F), record which landmarks /
//                      features were available ("known").
//   specialize()     — derive a per-service model: a head on the general
//                      network's frozen representation (convolution +
//                      first hidden layer) whose final fully-connected
//                      layers are retrained on that service's samples
//                      (§III-D, §IV-F); the head owns only those.
//   diagnose()       — rank all m root causes for one degraded sample:
//                      coarse prediction -> gradient attention (§III-E) ->
//                      Algorithm 1 score weighting -> ensemble averaging
//                      with the auxiliary forest (§III-F).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/attention.h"
#include "data/dataset.h"
#include "data/encoding.h"
#include "data/normalizer.h"
#include "forest/extensible_forest.h"
#include "nn/coarse_net.h"
#include "nn/trainer.h"
#include "util/status.h"

namespace diagnet::core {

/// Which fine-grained attention mechanism diagnose() uses. The paper picks
/// Gradient (white-box, one backward pass); Occlusion is the model-agnostic
/// alternative it mentions (§III-E), kept for the ablation bench.
enum class AttentionMethod { Gradient, Occlusion };

struct DiagNetConfig {
  /// Table I hyperparameters (f = 24 filters, Ω = 13 pooling ops, hidden
  /// layers 512/128, c = 7). Landmark/local/class sizes are derived from
  /// the feature space at construction.
  nn::CoarseNetConfig coarse;
  /// General-model training (SGD + Nesterov, lr 0.05, decay 0.001).
  nn::TrainerConfig trainer;
  /// Per-service specialisation training.
  nn::TrainerConfig specialization;
  /// Auxiliary model (Table I: Gini, 50 estimators, depth 10).
  forest::ForestConfig auxiliary;
  /// Ablation toggles (both on in the paper).
  bool use_score_weighting = true;
  bool use_ensemble = true;
  AttentionMethod attention = AttentionMethod::Gradient;
  std::uint64_t seed = 20210517;

  static DiagNetConfig defaults();
};

/// One ranked diagnosis.
struct Diagnosis {
  std::vector<double> scores;       // final score per cause (sums to 1)
  std::vector<std::size_t> ranking; // causes ordered by decreasing score
  std::vector<double> coarse_probs; // c fault-family probabilities
  std::size_t coarse_argmax = 0;
  std::vector<double> attention;    // tuned attention scores γ̂'
  double w_unknown = 0.0;           // ensemble weight of the attention side
};

/// The stable request type every diagnosis entry point consumes — the
/// single-sample façade, the batched engine (core/batch_diagnoser.h) and
/// the online server (src/serve) all speak this struct, so a request can
/// travel from a wire transport through micro-batching down to the model
/// without re-marshalling. Owns its feature storage (value semantics: safe
/// to queue, move across threads, and outlive its producer).
struct DiagnoseRequest {
  std::vector<double> features;          // raw feature vector, fs.total() wide
  std::size_t service = 0;               // ignored when use_general
  bool use_general = false;              // bypass the specialised heads
  /// Inference-time landmark fleet; empty means "every landmark probed"
  /// (the common serving case). When non-empty, must be landmark_count()
  /// long.
  std::vector<bool> landmark_available;
};

/// Per-request serving trace, stamped by serve::DiagnosisService so one
/// slow response can be explained from its own record: where the time
/// went (queued behind a batch window? a slow inference pass? a stalled
/// writer?) without correlating external logs. request_id == 0 means the
/// response never passed through a service (direct model call).
struct RequestTrace {
  std::uint64_t request_id = 0;      // service-assigned, unique per process
  double queue_us = 0.0;             // submit -> batch cut from the queue
  double assembly_us = 0.0;          // batch cut -> inference start
  double inference_us = 0.0;         // batched network passes
  double write_back_us = 0.0;        // inference end -> this promise stamped
  std::uint64_t batch_size = 0;      // live peers in the same batch
  std::uint64_t model_generation = 0;  // ModelProvider generation used
};

/// The paired response: a Status (OK, or the reason no diagnosis was
/// produced — validation failure, queue rejection, missed deadline) plus
/// the diagnosis when OK. CLI errors and server `Rejected` wire responses
/// both render from the same Status.
struct DiagnoseResponse {
  util::Status status;
  Diagnosis diagnosis;  // meaningful only when status.ok()
  RequestTrace trace;   // populated on the serving path (request_id != 0)
  bool ok() const { return status.ok(); }
};

class DiagNetModel {
 public:
  DiagNetModel(const data::FeatureSpace& fs, DiagNetConfig config);

  /// Train the general model on a training split (its landmark_available
  /// mask defines the known landmarks). Returns the training history
  /// (per-epoch losses feed Fig. 9).
  nn::TrainingHistory train_general(const data::Dataset& train);

  /// Derive the specialised model for `service` from the general model.
  /// Uses only the training samples of that service. The stored head is
  /// bound to the general's representation (nn::CoarseNet::head).
  nn::TrainingHistory specialize(std::size_t service,
                                 const data::Dataset& train);

  /// Diagnose one request (the stable API): validates the request shape
  /// and model state into the response Status instead of throwing, routes
  /// through the service's specialised model (or the general one when
  /// request.use_general), and returns the ranked diagnosis. A batch of
  /// one through the batched engine: BatchDiagnoser(*this).run({request}).
  DiagnoseResponse diagnose(const DiagnoseRequest& request);

  /// One row of a chunk for complete_diagnosis.
  struct ScoredRow {
    const AttentionResult* attention;
    const std::vector<double>* raw_features;
  };

  /// Tail of diagnosis for a chunk of rows that share one landmark mask:
  /// Algorithm 1 score weighting, ensemble blending with the auxiliary
  /// forest, and ranking, starting from already-computed attention
  /// results (the batched engine, core/batch_diagnoser.h, finishes every
  /// chunk through this method). The chunk's flat rows are encoded into
  /// one buffer and scored by one forest call; the rest runs per row, and
  /// row r's diagnosis is the one a chunk of that row alone gives.
  std::vector<Diagnosis> complete_diagnosis(
      std::span<const ScoredRow> rows,
      const std::vector<bool>& landmark_available) const;
  /// The same for one row: a chunk of one.
  Diagnosis complete_diagnosis(const AttentionResult& attention,
                               const std::vector<double>& raw_features,
                               const std::vector<bool>& landmark_available) const;

  /// Request validation, run by the batched engine on every request: OK,
  /// or the Status the response should carry —
  /// failed_precondition (untrained model) or invalid_argument (wrong
  /// feature count or mask length, a mask with no available landmark,
  /// non-finite features).
  util::Status validate(const DiagnoseRequest& request) const;

  /// Move `donor`'s specialized head for `service` into this model — the
  /// serving router uses this to merge per-service fine-tuned bundles into
  /// one serving model. Fails unless the head has our architecture and
  /// feature space and runs on a bit-identical frozen representation
  /// (LandPooling and first hidden layer). On success the head is rebound
  /// to this model's representation and the donor loses it.
  util::Status adopt_specialized(std::size_t service, DiagNetModel& donor);

  /// Services with a specialized head, ascending.
  std::vector<std::size_t> specialized_services() const;

  bool trained() const { return general_ != nullptr; }
  bool has_specialized(std::size_t service) const;
  const data::FeatureSpace& feature_space() const { return *fs_; }
  const data::Normalizer& normalizer() const { return normalizer_; }
  const forest::ExtensibleForest& auxiliary() const { return auxiliary_; }
  nn::CoarseNet& general_net();
  /// The head for `service`, or the general net; a head shares the
  /// general's representation layers.
  nn::CoarseNet& service_net(std::size_t service);
  /// Features unseen during training (the set U of §III-F).
  const std::vector<std::size_t>& unknown_features() const {
    return unknown_features_;
  }
  const DiagNetConfig& config() const { return config_; }

  /// Binary persistence of the trained state (see core/registry.h for the
  /// user-facing file API). save() requires a trained model. load()
  /// refuses a head whose stored representation differs from the general's.
  void save(util::BinaryWriter& writer) const;
  static std::unique_ptr<DiagNetModel> load(util::BinaryReader& reader,
                                            const data::FeatureSpace& fs);

  /// Inference-time ablation toggles (both on in the paper): Algorithm 1
  /// score weighting and §III-F ensemble averaging. Safe to flip on a
  /// trained model — they only affect diagnose().
  void set_score_weighting(bool enabled) {
    config_.use_score_weighting = enabled;
  }
  void set_ensemble(bool enabled) { config_.use_ensemble = enabled; }
  void set_attention_method(AttentionMethod method) {
    config_.attention = method;
  }
  /// Trainer settings and seed for later specialize() calls. A bundle
  /// records neither, so a loaded model starts from
  /// DiagNetConfig::defaults().
  void set_specialization(const nn::TrainerConfig& trainer,
                          std::uint64_t seed) {
    config_.specialization = trainer;
    config_.seed = seed;
  }

 private:
  const data::FeatureSpace* fs_;
  DiagNetConfig config_;
  data::Normalizer normalizer_;
  std::unique_ptr<nn::CoarseNet> general_;
  std::map<std::size_t, std::unique_ptr<nn::CoarseNet>> specialized_;
  forest::ExtensibleForest auxiliary_;
  std::vector<std::size_t> unknown_features_;
};

}  // namespace diagnet::core
