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

/// Runs one forward + one input-gradient backward pass on a single sample.
/// The backward is input-only (CoarseNet::backward_inputs): it computes no
/// parameter gradient and accumulates nothing on the net, so attention
/// never perturbs training state.
AttentionResult compute_attention(nn::CoarseNet& net,
                                  const nn::LandBatch& sample,
                                  const data::FeatureSpace& fs);

/// Gradient attention for a whole batch in one forward + one input-only
/// backward pass (no parameter gradients are touched). Result r is
/// bit-identical to compute_attention() on row r alone: every per-row
/// computation (GEMM accumulation order, pooling, softmax) is independent
/// of the other rows.
std::vector<AttentionResult> compute_attention_batch(
    nn::CoarseNet& net, const nn::LandBatch& batch,
    const data::FeatureSpace& fs);

/// One specialized head's slice of a shared-pooling union batch: which
/// union-batch rows this net scores.
struct PooledGroup {
  nn::CoarseNet* net = nullptr;
  std::vector<std::size_t> rows;
};

/// Gradient attention for a union batch scored by several specialized heads
/// that share one frozen LandPooling (groups[i].net must satisfy
/// shares_pooling_with(groups[0].net); the caller checks before grouping).
/// The pooling forward and backward each run ONCE over the whole union —
/// the FC stacks fan out per head — which is the perf point of frozen-kernel
/// specialization. Result r is bit-identical to compute_attention_batch()
/// with row r's own net: pooling, softmax and every kernel row-group are
/// per-row independent and batch-size invariant. groups must partition
/// [0, batch.size()).
std::vector<AttentionResult> compute_attention_shared_pooling(
    const std::vector<PooledGroup>& groups, const nn::LandBatch& batch,
    const data::FeatureSpace& fs);

/// Black-box alternative (the paper cites LIME-style model-agnostic
/// explainers as the generic option before choosing gradients, §III-E):
/// occlude one feature at a time — replace its normalised value with 0,
/// the training mean of its metric kind — and read the feature's usefulness
/// as the drop in the winning class probability. Costs m forward passes
/// instead of one backward pass; compared against the gradient method in
/// bench/ablation_attention.
AttentionResult compute_occlusion_attention(nn::CoarseNet& net,
                                            const nn::LandBatch& sample,
                                            const data::FeatureSpace& fs);

}  // namespace diagnet::core
