// Building blocks for the coarse-prediction network.
//
// The library uses plain reverse-mode backprop with explicitly wired layers
// (no tape). Layers are const during forward/backward: every activation a
// backward pass needs lives in a caller-owned workspace (CoarseWorkspace,
// LandPooling::PoolContext), so any number of threads can share one
// network. Input gradients are first-class — the DiagNet attention
// mechanism (paper §III-E) differentiates the loss with respect to the
// *features*, not just the weights.
#pragma once

#include "tensor/matrix.h"

namespace diagnet::nn {

using tensor::Matrix;

/// A trainable tensor: value, gradient accumulator, and a freeze flag used
/// by service specialisation (paper §IV-F freezes the convolution and first
/// hidden layer when deriving per-service models).
struct Parameter {
  Matrix value;
  Matrix grad;
  bool frozen = false;

  explicit Parameter(Matrix v) : value(std::move(v)), grad(value.rows(), value.cols()) {}
  void zero_grad() { grad.fill(0.0); }
};

}  // namespace diagnet::nn
