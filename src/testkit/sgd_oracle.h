// Reference tail of a data-parallel training step: the obvious serial
// pipeline that adds every shard accumulator into a zeroed gradient with
// tensor::axpy in ascending shard order, clips to the global norm summed
// over every element in parameter order, then applies the momentum update
// element by element and zeroes everything. It is the specification the
// fused two-pass nn::SgdOptimizer::step must match: bit for bit when the
// clip does not fire, and within one ulp of the clip scale when it does.
#pragma once

#include <vector>

#include "nn/sgd.h"
#include "tensor/matrix.h"
#include "testkit/harness.h"

namespace diagnet::testkit {

namespace oracle {

/// What the reference step computed.
struct ReferenceStep {
  double norm = 0.0;
  float scale = 1.0f;
  bool clipped = false;
};

/// One step over `shards` (each one buffer per parameter), updating
/// `weights` and `velocity` (one buffer per parameter) in place and zeroing
/// every shard. `forced_scale`, when non-null, replaces the clip scale
/// whenever the clip fires, so a caller can replay another scale.
ReferenceStep reference_sgd_step(
    std::vector<std::vector<tensor::Matrix>>& shards,
    std::vector<tensor::Matrix>& weights,
    std::vector<tensor::Matrix>& velocity, const nn::SgdConfig& config,
    double clip_norm, const float* forced_scale = nullptr);

}  // namespace oracle

/// nn::SgdOptimizer::step against the reference on 1–5 shards of random
/// accumulators holding ±0 and subnormals, over parameters whose sizes are
/// not multiples of the 4096-float slice: weights and velocities must hold
/// the reference's bits when the clip does not fire; when it fires, they
/// must hold the bits of the reference replayed at its own clip scale or
/// at one a single ulp away. Every accumulator must be zero afterwards.
void check_sgd_step(CaseContext& ctx);

}  // namespace diagnet::testkit
