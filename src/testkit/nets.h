// One-call drivers over the const workspace API, for suites and tests that
// need a whole forward or a whole attention pass on a throwaway workspace.
// They add no math: each is the production entry point plus its scratch.
#pragma once

#include <cstddef>
#include <vector>

#include "core/attention.h"
#include "data/feature_space.h"
#include "nn/batch.h"
#include "nn/coarse_net.h"
#include "nn/land_pooling.h"
#include "tensor/matrix.h"

namespace diagnet::testkit {

/// Pooled (B, ops·f) rows of `pool` on (land, mask).
inline tensor::Matrix pool_forward(const nn::LandPooling& pool,
                                   const tensor::Matrix& land,
                                   const tensor::Matrix& mask) {
  nn::LandPooling::PoolContext ctx;
  tensor::Matrix out;
  pool.forward(land, mask, ctx, out);
  return out;
}

/// Logits (B x c) of `net` on `batch`.
inline tensor::Matrix logits(const nn::CoarseNet& net,
                             const nn::LandBatch& batch) {
  nn::CoarseWorkspace ws;
  return net.forward(batch, ws);
}

/// Gradient attention for every row of `batch` through one network: the
/// shared-pooling union path with a single group.
inline std::vector<core::AttentionResult> attention(
    const nn::CoarseNet& net, const nn::LandBatch& batch,
    const data::FeatureSpace& fs) {
  core::PooledGroup group{&net, std::vector<std::size_t>(batch.size())};
  for (std::size_t r = 0; r < batch.size(); ++r) group.rows[r] = r;
  return core::compute_attention_shared_pooling({group}, batch, fs);
}

}  // namespace diagnet::testkit
