// Reference LandPooling: the obvious layer that sorts every (sample,
// filter)'s available values with std::sort, in the forward and again in
// each backward pass. It is the specification the production layer
// (src/nn/land_pooling.cpp), which ranks once and keeps the order, must
// match bit for bit on the same kernel tier.
#pragma once

#include <vector>

#include "nn/land_pooling.h"
#include "tensor/matrix.h"
#include "testkit/harness.h"

namespace diagnet::testkit {

namespace oracle {

/// LandPooling with the given kernel (f x k), bias (1 x f) and operator
/// bank. Stateless: every call convolves and sorts from scratch.
class SortingLandPooling {
 public:
  SortingLandPooling(const tensor::Matrix& kernel, const tensor::Matrix& bias,
                     std::vector<nn::PoolOp> ops);

  /// The pooled (B, ops·f) rows nn::LandPooling::forward writes.
  tensor::Matrix forward(const tensor::Matrix& land,
                         const tensor::Matrix& mask) const;

  /// dK += Σ dF[λ] ⊗ x[λ] and db += Σ dF[λ], as
  /// nn::LandPooling::backward_params accumulates them.
  void backward_params(const tensor::Matrix& land, const tensor::Matrix& mask,
                       const tensor::Matrix& grad_pooled,
                       tensor::Matrix& kernel_grad,
                       tensor::Matrix& bias_grad) const;

  /// The (B, L·k) input gradient nn::LandPooling::backward_input writes.
  tensor::Matrix backward_input(const tensor::Matrix& land,
                                const tensor::Matrix& mask,
                                const tensor::Matrix& grad_pooled) const;

 private:
  /// F[λ] = K·x[λ] + b per available landmark, (B, L, f), 0 elsewhere.
  std::vector<float> conv(const tensor::Matrix& land,
                          const tensor::Matrix& mask) const;
  /// The routed pooled gradients dF, conv's layout, each (sample, filter)
  /// sorted again.
  std::vector<float> route_grads(const tensor::Matrix& land,
                                 const tensor::Matrix& mask,
                                 const tensor::Matrix& grad_pooled) const;

  tensor::Matrix kernel_;
  tensor::Matrix bias_;
  std::vector<nn::PoolOp> ops_;
};

}  // namespace oracle

/// nn::LandPooling against the sorting reference on random shapes (L and
/// B from 1 to 40, masks down to one available landmark) with exact ties,
/// ±0 convolution values and NaN/±inf/3e38 rows: the pooled rows, input
/// gradients and accumulated kernel/bias gradients must hold the same
/// bits, with both backward passes run in both orders after one forward.
void check_landpool_bits(CaseContext& ctx);

}  // namespace diagnet::testkit
