// SGD with Nesterov momentum and L2 weight decay — the optimizer of
// Table I (learning rate 0.05, decay 0.001) — fused with the tail of a
// data-parallel training step: the reduce of the per-shard gradient
// accumulators and the global-norm clip.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/layer.h"

namespace diagnet::util {
class ThreadPool;
}

namespace diagnet::nn {

struct SgdConfig {
  double learning_rate = 0.05;
  double momentum = 0.9;
  double weight_decay = 0.001;
  bool nesterov = true;
};

class SgdOptimizer {
 public:
  /// step() cuts every bound parameter into slices of this many floats (a
  /// parameter's last slice may be shorter) and hands the slices to the
  /// pool. A constant — never derived from the worker count — so every sum
  /// takes the same operands in the same order whatever the pool's size.
  static constexpr std::size_t kSliceFloats = 4096;

  /// Binds to a fixed parameter list; velocity buffers are keyed by
  /// position, so the list must not change between steps.
  SgdOptimizer(std::vector<Parameter*> params, const SgdConfig& config);

  /// One update from `shards`: one gradient accumulator per shard, each
  /// holding one buffer per bound parameter (same order and shapes), owned
  /// by the caller. Two parallel_for passes over the slices:
  ///   1. reduce: sum the shards in ascending order into shards[0],
  ///      starting from 0.0f + shards[0] (so a −0 sum reads +0); zero the
  ///      other shards; keep a double sum of squares per slice. The slice
  ///      sums, added in slice order, give the norm.
  ///   2. update: when clip_norm > 0 and the norm exceeds it, scale the
  ///      gradient by clip_norm / norm; apply the momentum update with
  ///      weight decay; zero shards[0].
  /// Returns whether the clip fired. Every accumulator is zero on return,
  /// and the parameters and velocities hold the same bits for every pool
  /// size. The passes run under the trainer's `trainer.step.reduce` and
  /// `trainer.step.optimizer` spans: the trainer is the only caller.
  bool step(std::span<std::vector<Matrix>* const> shards, double clip_norm,
            util::ThreadPool& pool);

  const SgdConfig& config() const { return config_; }
  /// The momentum buffers, one per bound parameter (read by the reference
  /// test of step()).
  const std::vector<Matrix>& velocity() const { return velocity_; }

 private:
  struct Slice {
    std::size_t param;
    std::size_t begin;
    std::size_t end;
  };

  std::vector<Parameter*> params_;
  std::vector<Matrix> velocity_;
  std::vector<Slice> slices_;      // parameter order, then offset
  std::vector<double> slice_sq_;   // pass 1's sum of squares per slice
  SgdConfig config_;
};

}  // namespace diagnet::nn
