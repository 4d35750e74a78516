#include "nn/quantized.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "util/require.h"

namespace diagnet::nn {

QuantizedLinear quantize_weights(const tensor::Matrix& weight) {
  QuantizedLinear q;
  if (weight.rows() == 0 || weight.cols() == 0) return q;
  q.in = weight.rows();
  q.out = weight.cols();
  q.weights.resize(q.in * q.out);
  q.scales.resize(q.out);
  for (std::size_t j = 0; j < q.out; ++j) {
    float absmax = 0.0f;
    for (std::size_t i = 0; i < q.in; ++i)
      absmax = std::max(absmax, std::fabs(weight(i, j)));
    const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
    q.scales[j] = scale;
    const float inv = 1.0f / scale;
    for (std::size_t i = 0; i < q.in; ++i) {
      const long r = std::lrint(weight(i, j) * inv);
      q.weights[i * q.out + j] =
          static_cast<std::int8_t>(std::clamp(r, -127L, 127L));
    }
  }
  return q;
}

void snap_to_grid(const QuantizedLinear& q, tensor::Matrix& weight) {
  DIAGNET_REQUIRE(weight.rows() == q.in && weight.cols() == q.out);
  for (std::size_t i = 0; i < q.in; ++i)
    for (std::size_t j = 0; j < q.out; ++j)
      weight(i, j) = static_cast<float>(q.weights[i * q.out + j]) * q.scales[j];
}

void quantized_forward(const QuantizedLinear& q, const tensor::Matrix& input,
                       const tensor::Matrix& bias, tensor::Matrix& out) {
  DIAGNET_REQUIRE(q.valid() && input.cols() == q.in);
  DIAGNET_REQUIRE(bias.rows() == 1 && bias.cols() == q.out);
  const std::size_t rows = input.rows();
  out.resize(rows, q.out);
  if (rows == 0) return;
  const tensor::detail::Kernels& K = tensor::detail::active_kernels();
  // Per-thread scratch: quantized_forward is const over the layer and may
  // run concurrently on one shared net.
  thread_local std::vector<std::int8_t> qx;
  thread_local std::vector<std::int32_t> acc;
  qx.resize(q.in);
  acc.resize(q.out);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* x = input.row_ptr(r);
    const float absmax = K.reduce_absmax(x, q.in);
    // absmax == 0 => the row is all zeros; any scale maps it to all-zero
    // codes, so 1 is as good (and as safe) as any.
    const float sx = absmax > 0.0f ? absmax / 127.0f : 1.0f;
    K.quantize_row(x, 1.0f / sx, qx.data(), q.in);
    std::fill(acc.begin(), acc.end(), 0);
    K.qgemv(qx.data(), q.weights.data(), q.in, q.out, acc.data());
    float* y = out.row_ptr(r);
    const float* b = bias.data();
    for (std::size_t j = 0; j < q.out; ++j)
      y[j] = sx * q.scales[j] * static_cast<float>(acc[j]) + b[j];
  }
}

}  // namespace diagnet::nn
