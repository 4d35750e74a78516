// Fully-connected layer: Y = X·W + b.
#pragma once

#include <vector>

#include "nn/layer.h"
#include "nn/quantized.h"
#include "util/rng.h"

namespace diagnet::nn {

class Linear {
 public:
  /// He-uniform initialisation (suits the ReLU activations that follow
  /// every hidden layer in the coarse model).
  Linear(std::size_t in, std::size_t out, util::Rng& rng);

  /// Forward: out = input·W + b, capacity-aware resize of `out`, no
  /// activation caching — const and safe to call concurrently from several
  /// threads against the same layer.
  void forward_into(const Matrix& input, Matrix& out) const;
  /// Workspace backward: accumulates dW into grad_weight (+=) and db into
  /// grad_bias (+=) — both must be pre-sized and zeroed per step — and
  /// writes dX into grad_input when non-null. `input` is the activation
  /// that was fed to forward_into (the caller's workspace keeps it).
  void backward_into(const Matrix& input, const Matrix& grad_output,
                     Matrix& grad_weight, Matrix& grad_bias,
                     Matrix* grad_input) const;
  /// Input gradient only: grad_input = dY · W^T, bit-identical to
  /// backward_into's dX — the inference path (attention needs input
  /// gradients, never parameter gradients), skipping ~2/3 of the traffic.
  void backward_input(const Matrix& grad_output, Matrix& grad_input) const;

  std::vector<Parameter*> parameters() { return {&weight_, &bias_}; }

  std::size_t in_features() const { return weight_.value.rows(); }
  std::size_t out_features() const { return weight_.value.cols(); }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

  /// Int8 inference mode (see nn/quantized.h). Enabling quantizes the
  /// current weights AND snaps the fp copy onto the int8 grid, so the fp
  /// backward pass differentiates the function the quantized forward
  /// serves. Disabling only drops the int8 codes — the fp weights stay
  /// snapped (quantization is lossy; there is no way back).
  void set_quantized(bool on);
  bool quantized() const { return quant_.valid(); }

 private:
  Parameter weight_;  // (in x out)
  Parameter bias_;    // (1 x out)
  QuantizedLinear quant_;  // int8 codes when quantized mode is on
};

}  // namespace diagnet::nn
