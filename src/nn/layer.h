// Building blocks for the coarse-prediction network.
//
// The library uses plain reverse-mode backprop with explicitly wired layers
// (no tape). Layers are const during forward/backward: every activation a
// backward pass needs lives in a caller-owned workspace (CoarseWorkspace,
// LandPooling::PoolContext), so any number of threads can share one
// network. Input gradients are first-class — the DiagNet attention
// mechanism (paper §III-E) differentiates the loss with respect to the
// *features*, not just the weights.
//
// A network holds weights only. Parameter gradients go to the caller's
// CoarseWorkspace::param_grads, and the trainer owns those accumulators
// and the optimizer state, so a served net costs its weight bytes and
// nothing more.
#pragma once

#include "tensor/matrix.h"

namespace diagnet::nn {

using tensor::Matrix;

/// A trainable tensor. What a trainer may update is the net's choice
/// (CoarseNet::parameters()), not a property of the tensor.
struct Parameter {
  Matrix value;

  explicit Parameter(Matrix v) : value(std::move(v)) {}
};

}  // namespace diagnet::nn
