// Mini-batch trainer for the coarse network, with validation-based early
// stopping ("we consider that the training is done when the validation loss
// is no longer decreasing", paper §IV-F) and per-epoch loss capture used to
// regenerate Fig. 9.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/batch.h"
#include "nn/coarse_net.h"
#include "nn/sgd.h"

namespace diagnet::nn {

/// Flat training set: row i of each matrix plus labels[i] form one sample.
struct CoarseDataset {
  Matrix land;
  Matrix mask;
  Matrix local;
  std::vector<std::size_t> labels;  // coarse fault-family index in [0, c)

  std::size_t size() const { return labels.size(); }
  /// Gather the given rows into a contiguous batch.
  LandBatch gather(const std::vector<std::size_t>& rows) const;
  std::vector<std::size_t> gather_labels(
      const std::vector<std::size_t>& rows) const;
  /// Allocation-free variants: gather `n` rows into reused buffers
  /// (capacity-aware resize) — the steady-state training path.
  void gather(const std::size_t* rows, std::size_t n, LandBatch& out) const;
  void gather_labels(const std::size_t* rows, std::size_t n,
                     std::vector<std::size_t>& out) const;
};

struct TrainerConfig {
  std::size_t batch_size = 64;
  std::size_t max_epochs = 60;
  /// Stop after this many consecutive epochs without a new best validation
  /// loss (see EarlyStopper for the exact plateau semantics).
  std::size_t patience = 5;
  /// An epoch only counts as an improvement when it beats the best
  /// validation loss by more than this margin ("the training is done when
  /// the validation loss is no longer decreasing", §IV-F).
  double min_delta = 0.0;
  /// Fraction of the training set held out for validation.
  double validation_fraction = 0.1;
  /// Global-norm gradient clipping: when the L2 norm of the minibatch
  /// gradient exceeds this, every gradient is scaled down to it before the
  /// optimizer step (0 disables). The norm covers only the parameters the
  /// step updates: net.parameters(), a head's tail when specialising.
  /// Balanced campaigns never get near the default — their step norms stay
  /// under ~25 — so this leaves healthy trajectories untouched. It exists
  /// for heavily imbalanced campaigns (client-mode streaming runs are >99%
  /// nominal), where momentum-aligned one-class gradients can otherwise
  /// drive the logits into a self-reinforcing exponential blow-up: gradient
  /// magnitude scales with the weights, so one oversized kick compounds to
  /// inf/NaN within a few hundred steps. The norm comes from
  /// SgdOptimizer::step's reduce pass: a double sum of squares per fixed
  /// 4096-float slice of the ascending-shard reduced gradient, the slice
  /// sums added in slice order, so the trajectory stays bit-identical for
  /// every thread count. Each step that clips counts `trainer.clip.fired`.
  double clip_norm = 100.0;
  SgdConfig sgd;
  std::uint64_t seed = 1;
  /// Restore the parameters of the best validation epoch on completion.
  bool restore_best = true;
  /// Worker threads for minibatch sharding: 0 = the process-wide pool
  /// (sized to the machine), 1 = serial on the caller, N = a dedicated
  /// N-thread pool. The training trajectory is BIT-IDENTICAL for every
  /// value: each minibatch is cut into fixed 16-row shards (a partition
  /// that depends only on the batch, never on the worker count), each
  /// shard's gradients go to its own accumulator, and shard results are
  /// reduced in ascending shard order over fixed 4096-float slices.
  std::size_t threads = 0;
};

/// Early-stopping state machine ("the training is done when the validation
/// loss is no longer decreasing", §IV-F). An epoch is an improvement only
/// when it beats the best validation loss seen so far by more than
/// min_delta; every other epoch — including one whose loss exactly equals
/// the best when min_delta is 0 — is stale. A run of `patience` consecutive
/// stale epochs triggers the stop. (The previous inline logic required
/// patience + 1 stale epochs, so a perfectly flat plateau overran the
/// configured patience by one epoch.)
class EarlyStopper {
 public:
  EarlyStopper(double min_delta, std::size_t patience)
      : min_delta_(min_delta), patience_(patience) {}

  /// Record one epoch's validation loss. Returns true when training should
  /// stop after this epoch.
  bool update(double val_loss) {
    if (val_loss < best_ - min_delta_) {
      best_ = val_loss;
      stale_ = 0;
      improved_ = true;
      return false;
    }
    improved_ = false;
    return ++stale_ >= patience_;
  }

  /// Whether the most recent update() was a new best.
  bool improved() const { return improved_; }
  double best() const { return best_; }
  std::size_t stale() const { return stale_; }

 private:
  double min_delta_;
  std::size_t patience_;
  double best_ = std::numeric_limits<double>::infinity();
  std::size_t stale_ = 0;
  bool improved_ = false;
};

struct EpochStats {
  double train_loss = 0.0;
  double validation_loss = 0.0;
};

struct TrainingHistory {
  std::vector<EpochStats> epochs;
  std::size_t best_epoch = 0;    // index into `epochs`
  double wall_seconds = 0.0;

  std::size_t epochs_run() const { return epochs.size(); }
};

/// Train `net`'s parameters() on `data` — every layer of a general net,
/// only the tail of a head. Shuffling, the train/validation split, and
/// batch order derive from config.seed only.
TrainingHistory train_coarse(CoarseNet& net, const CoarseDataset& data,
                             const TrainerConfig& config);

/// Mean softmax cross-entropy of `net` over a dataset (no gradient).
double evaluate_loss(CoarseNet& net, const CoarseDataset& data,
                     std::size_t batch_size = 256);

}  // namespace diagnet::nn
