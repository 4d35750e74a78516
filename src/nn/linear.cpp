#include "nn/linear.h"

#include <cmath>

#include "tensor/ops.h"
#include "util/require.h"

namespace diagnet::nn {

Linear::Linear(std::size_t in, std::size_t out, util::Rng& rng)
    : weight_(Matrix(in, out)), bias_(Matrix(1, out)) {
  DIAGNET_REQUIRE(in > 0 && out > 0);
  // He-uniform: U(-limit, limit) with limit = sqrt(6 / fan_in).
  const double limit = std::sqrt(6.0 / static_cast<double>(in));
  for (std::size_t r = 0; r < in; ++r)
    for (std::size_t c = 0; c < out; ++c)
      weight_.value(r, c) = rng.uniform(-limit, limit);
  // Bias stays zero-initialised.
}

void Linear::forward_into(const Matrix& input, Matrix& out) const {
  DIAGNET_REQUIRE_MSG(input.cols() == in_features(), "input width mismatch");
  if (quant_.valid()) {
    quantized_forward(quant_, input, bias_.value, out);
    return;
  }
  tensor::gemm(input, weight_.value, out);
  tensor::add_row_bias(out, bias_.value);
}

void Linear::set_quantized(bool on) {
  if (!on) {
    quant_ = QuantizedLinear{};
    return;
  }
  if (quant_.valid()) return;  // already quantized (and already snapped)
  quant_ = quantize_weights(weight_.value);
  snap_to_grid(quant_, weight_.value);
}

void Linear::backward_into(const Matrix& input, const Matrix& grad_output,
                           Matrix& grad_weight, Matrix& grad_bias,
                           Matrix* grad_input) const {
  DIAGNET_REQUIRE_MSG(grad_output.rows() == input.rows() &&
                          grad_output.cols() == out_features(),
                      "backward called with mismatched gradient");
  tensor::gemm_at_b_acc(input, grad_output, grad_weight);
  tensor::sum_rows_acc(grad_output, grad_bias);
  if (grad_input) tensor::gemm_a_bt(grad_output, weight_.value, *grad_input);
}

void Linear::backward_input(const Matrix& grad_output,
                            Matrix& grad_input) const {
  DIAGNET_REQUIRE_MSG(grad_output.cols() == out_features(),
                      "backward called with mismatched gradient");
  tensor::gemm_a_bt(grad_output, weight_.value, grad_input);
}

}  // namespace diagnet::nn
