// Fine-grained inference via the gradient attention mechanism (paper
// §III-E): compute the ideal label y* = onehot(argmax y) of the coarse
// prediction, backpropagate the cross-entropy L* = -log y_argmax through
// the coarse network down to the *input features*, and read each feature's
// usefulness as its normalised absolute partial derivative (Eq. 1):
//
//   γ̂_j = |∂L*/∂x_j| / Σ_k |∂L*/∂x_k|
#pragma once

#include <cstddef>
#include <vector>

#include "data/feature_space.h"
#include "nn/coarse_net.h"

namespace diagnet::core {

struct AttentionResult {
  std::vector<double> coarse_probs;  // softmax over the c fault families
  std::size_t coarse_argmax = 0;
  /// γ̂ over the m features (masked-out landmarks get exactly 0).
  std::vector<double> gamma;
};

/// One network's slice of a union batch: which union-batch rows this net
/// scores.
struct PooledGroup {
  const nn::CoarseNet* net = nullptr;
  std::vector<std::size_t> rows;
};

/// Gradient attention — the only implementation: one forward and one
/// input-only backward pass (no parameter gradient is computed, nothing is
/// written to the nets). The batch is a union scored by one or more
/// networks that share one frozen LandPooling (groups[i].net must satisfy
/// shares_pooling_with(groups[0].net); the caller checks before grouping).
/// The pooling forward and backward each run ONCE over the whole union and
/// the FC stacks fan out per head — the perf point of frozen-kernel
/// specialization; a single-network batch is a union of one group. Result
/// r is bit-identical to running row r alone through its own net: pooling,
/// softmax and every kernel row-group are per-row independent and
/// batch-size invariant. groups must partition [0, batch.size()).
std::vector<AttentionResult> compute_attention_shared_pooling(
    const std::vector<PooledGroup>& groups, const nn::LandBatch& batch,
    const data::FeatureSpace& fs);

/// Black-box alternative (the paper cites LIME-style model-agnostic
/// explainers as the generic option before choosing gradients, §III-E):
/// occlude one feature at a time — replace its normalised value with 0,
/// the training mean of its metric kind — and read the feature's usefulness
/// as the drop in the winning class probability. Costs m forward passes
/// instead of one backward pass; compared against the gradient method in
/// bench/ablation_attention. `sample` must hold exactly one row.
AttentionResult compute_occlusion_attention(const nn::CoarseNet& net,
                                            const nn::LandBatch& sample,
                                            const data::FeatureSpace& fs);

}  // namespace diagnet::core
