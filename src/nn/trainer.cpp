#include "nn/trainer.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "nn/softmax.h"
#include "obs/obs.h"
#include "util/require.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace diagnet::nn {

LandBatch CoarseDataset::gather(const std::vector<std::size_t>& rows) const {
  LandBatch batch;
  gather(rows.data(), rows.size(), batch);
  return batch;
}

std::vector<std::size_t> CoarseDataset::gather_labels(
    const std::vector<std::size_t>& rows) const {
  std::vector<std::size_t> out;
  gather_labels(rows.data(), rows.size(), out);
  return out;
}

void CoarseDataset::gather(const std::size_t* rows, std::size_t n,
                           LandBatch& out) const {
  out.land.resize(n, land.cols());
  out.mask.resize(n, mask.cols());
  out.local.resize(n, local.cols());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = rows[i];
    DIAGNET_REQUIRE(r < size());
    std::copy(land.row_ptr(r), land.row_ptr(r) + land.cols(),
              out.land.row_ptr(i));
    std::copy(mask.row_ptr(r), mask.row_ptr(r) + mask.cols(),
              out.mask.row_ptr(i));
    std::copy(local.row_ptr(r), local.row_ptr(r) + local.cols(),
              out.local.row_ptr(i));
  }
}

void CoarseDataset::gather_labels(const std::size_t* rows, std::size_t n,
                                  std::vector<std::size_t>& out) const {
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    DIAGNET_REQUIRE(rows[i] < size());
    out[i] = labels[rows[i]];
  }
}

namespace {

// Rows per shard. A shard is the unit of parallel work AND the unit of
// gradient accumulation; it is a fixed constant — never derived from the
// worker count — so the partition of a minibatch, the floating-point
// reduction order inside each shard, and the optimizer's ascending-shard
// reduce are all invariant under the number of threads. That is what makes
// training bit-identical for every TrainerConfig::threads value.
constexpr std::size_t kShardRows = 16;

/// One shard's private state: its slice of the minibatch and the workspace
/// (activations + parameter-gradient accumulators) it runs forward/backward
/// in. All buffers are reused across steps via capacity-aware resizes, so a
/// steady-state epoch performs no heap allocation.
struct Shard {
  LandBatch batch;
  std::vector<std::size_t> labels;
  CoarseWorkspace ws;
  double loss_sum = 0.0;  // summed (not averaged) loss over the shard
};

/// Data-parallel minibatch engine. Each step cuts the batch into fixed
/// 16-row shards, runs gather / forward+loss / backward as parallel_for
/// phases over the shards, then hands the per-shard gradient accumulators
/// to the optimizer, which reduces them in ascending shard order, clips,
/// updates and leaves every accumulator zeroed for the next step.
class ShardEngine {
 public:
  ShardEngine(const CoarseNet& net, const CoarseDataset& data,
              util::ThreadPool& pool)
      : net_(net), data_(data), pool_(pool) {}

  /// Forward + backward over rows[0, n), then one optimizer step on the
  /// gradient of the minibatch MEAN loss, clipped to global norm
  /// `clip_norm`. Returns the summed per-sample loss.
  double train_step(const std::size_t* rows, std::size_t n,
                    SgdOptimizer& optimizer, double clip_norm) {
    std::size_t count = 0;
    {
      DIAGNET_SPAN("trainer.step.gather");
      count = prepare(rows, n, /*need_grads=*/true);
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    {
      DIAGNET_SPAN("trainer.step.forward");
      pool_.parallel_for(count, [&](std::size_t s) {
        Shard& sh = shards_[s];
        const Matrix& logits = net_.forward(sh.batch, sh.ws);
        // grad_scale 1/n: per-shard gradients then SUM to the gradient of
        // the minibatch mean loss.
        sh.loss_sum = softmax_cross_entropy_sum(logits, sh.labels.data(),
                                                sh.labels.size(),
                                                &sh.ws.grad_logits, inv_n);
      });
    }
    {
      DIAGNET_SPAN("trainer.step.backward");
      pool_.parallel_for(count, [&](std::size_t s) {
        Shard& sh = shards_[s];
        net_.backward(sh.ws.grad_logits, sh.ws);
      });
    }
    accumulators_.resize(count);
    for (std::size_t s = 0; s < count; ++s)
      accumulators_[s] = &shards_[s].ws.param_grads;
    // Counted every step, so a run that never clips reports 0.
    const bool clipped = optimizer.step(accumulators_, clip_norm, pool_);
    DIAGNET_COUNT_N("trainer.clip.fired", clipped ? 1 : 0);
    double loss = 0.0;
    for (std::size_t s = 0; s < count; ++s) loss += shards_[s].loss_sum;
    return loss;
  }

  /// Summed (not averaged) loss over rows[0, n); no gradients.
  double loss_sum(const std::size_t* rows, std::size_t n) {
    const std::size_t count = prepare(rows, n, /*need_grads=*/false);
    pool_.parallel_for(count, [&](std::size_t s) {
      Shard& sh = shards_[s];
      const Matrix& logits = net_.forward(sh.batch, sh.ws);
      sh.loss_sum = softmax_cross_entropy_sum(logits, sh.labels.data(),
                                              sh.labels.size(), nullptr, 0.0);
    });
    double total = 0.0;
    for (std::size_t s = 0; s < count; ++s) total += shards_[s].loss_sum;
    return total;
  }

 private:
  /// Size the shard pool for n rows and gather each shard's slice (in
  /// parallel). Gradient accumulators are only materialised for shards that
  /// will run backward — evaluation-only shards skip that memory.
  std::size_t prepare(const std::size_t* rows, std::size_t n,
                      bool need_grads) {
    DIAGNET_REQUIRE(n > 0);
    const std::size_t count = (n + kShardRows - 1) / kShardRows;
    if (shards_.size() < count) shards_.resize(count);
    if (need_grads) {
      for (std::size_t s = 0; s < count; ++s)
        if (shards_[s].ws.param_grads.empty())
          net_.init_workspace(shards_[s].ws);
    }
    pool_.parallel_for(count, [&](std::size_t s) {
      Shard& sh = shards_[s];
      const std::size_t s0 = s * kShardRows;
      const std::size_t len = std::min(n, s0 + kShardRows) - s0;
      data_.gather(rows + s0, len, sh.batch);
      data_.gather_labels(rows + s0, len, sh.labels);
    });
    return count;
  }

  const CoarseNet& net_;
  const CoarseDataset& data_;
  util::ThreadPool& pool_;
  std::vector<Shard> shards_;
  std::vector<std::vector<Matrix>*> accumulators_;  // shards_[0, count)
};

/// Resolve TrainerConfig::threads to a pool: 0 = the process-wide pool,
/// otherwise a dedicated pool (1 runs inline, spawning no workers).
struct PoolChoice {
  std::unique_ptr<util::ThreadPool> local;
  util::ThreadPool* pool = nullptr;
};

PoolChoice choose_pool(std::size_t threads) {
  PoolChoice choice;
  if (threads == 0) {
    choice.pool = &util::ThreadPool::global();
  } else {
    choice.local = std::make_unique<util::ThreadPool>(threads);
    choice.pool = choice.local.get();
  }
  return choice;
}

/// Mean loss over `rows`, evaluated in blocks of `block` rows.
double mean_loss(ShardEngine& engine, const std::vector<std::size_t>& rows,
                 std::size_t block) {
  if (rows.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t begin = 0; begin < rows.size(); begin += block) {
    const std::size_t end = std::min(rows.size(), begin + block);
    total += engine.loss_sum(rows.data() + begin, end - begin);
  }
  return total / static_cast<double>(rows.size());
}

}  // namespace

TrainingHistory train_coarse(CoarseNet& net, const CoarseDataset& data,
                             const TrainerConfig& config) {
  DIAGNET_SPAN("trainer.fit");
  DIAGNET_REQUIRE(data.size() > 1);
  DIAGNET_REQUIRE(config.batch_size > 0 && config.max_epochs > 0);
  DIAGNET_REQUIRE(config.validation_fraction >= 0.0 &&
                  config.validation_fraction < 1.0);

  const auto t0 = std::chrono::steady_clock::now();
  util::Rng rng(config.seed);

  // Deterministic train/validation split.
  std::vector<std::size_t> rows(data.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  rng.shuffle(rows);
  const auto val_count = static_cast<std::size_t>(
      config.validation_fraction * static_cast<double>(rows.size()));
  const std::vector<std::size_t> val_rows(rows.begin(),
                                          rows.begin() + val_count);
  std::vector<std::size_t> train_rows(rows.begin() + val_count, rows.end());
  DIAGNET_REQUIRE_MSG(!train_rows.empty(), "empty training split");

  // The network holds weights only: the shard accumulators and the
  // optimizer's velocity live here for the length of the fit. A head hands
  // over only its tail, so every buffer below (shard accumulators, reduce,
  // clip, velocity, best snapshot) covers only that.
  const std::vector<Parameter*> params = net.parameters();
  SgdOptimizer optimizer(params, config.sgd);

  PoolChoice pool = choose_pool(config.threads);
  ShardEngine engine(net, data, *pool.pool);

  TrainingHistory history;
  EarlyStopper stopper(config.min_delta, config.patience);
  std::vector<Matrix> best_params;  // parameter values of the best epoch

  bool early_stopped = false;
  for (std::size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    DIAGNET_SPAN("trainer.epoch");
    DIAGNET_COUNT("trainer.epochs");
    rng.shuffle(train_rows);
    double train_loss = 0.0;
    for (std::size_t begin = 0; begin < train_rows.size();
         begin += config.batch_size) {
      DIAGNET_SPAN("trainer.step");
      const std::size_t end =
          std::min(train_rows.size(), begin + config.batch_size);
      train_loss += engine.train_step(train_rows.data() + begin,
                                      end - begin, optimizer,
                                      config.clip_norm);
    }
    train_loss /= static_cast<double>(train_rows.size());

    // When no validation split was requested, early-stop on training loss.
    const double val_loss =
        val_rows.empty() ? train_loss : mean_loss(engine, val_rows, 256);
    history.epochs.push_back({train_loss, val_loss});
    DIAGNET_OBSERVE("trainer.epoch.train_loss", train_loss);
    DIAGNET_OBSERVE("trainer.epoch.val_loss", val_loss);

    const bool stop = stopper.update(val_loss);
    if (stopper.improved()) {
      history.best_epoch = epoch;
      if (config.restore_best) {
        best_params.resize(params.size());
        for (std::size_t k = 0; k < params.size(); ++k)
          best_params[k].assign(params[k]->value);
      }
    }
    if (stop) {
      early_stopped = true;
      break;
    }
  }

  if (early_stopped) DIAGNET_COUNT("trainer.early_stops");
  if (config.restore_best && !best_params.empty())
    for (std::size_t k = 0; k < params.size(); ++k)
      params[k]->value.assign(best_params[k]);

  history.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  DIAGNET_GAUGE_SET("trainer.last.best_val_loss", stopper.best());
  return history;
}

double evaluate_loss(CoarseNet& net, const CoarseDataset& data,
                     std::size_t batch_size) {
  std::vector<std::size_t> rows(data.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  ShardEngine engine(net, data, util::ThreadPool::global());
  return mean_loss(engine, rows, batch_size);
}

}  // namespace diagnet::nn
