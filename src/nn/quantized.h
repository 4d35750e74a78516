// Int8 post-training quantization for the FC stack ("--quantize").
//
// Scheme: symmetric per-output-channel weights — each output unit j of a
// (in x out) layer gets one scale s_j = absmax(W[:, j]) / 127 and int8
// codes q_ij = round(w_ij / s_j) — with dynamic per-sample activation
// quantization (one scale per input row, recomputed per request), int32
// accumulation and fp32 rescale. The paper-facing description "per-row"
// refers to rows of the logical (out x in) weight matrix; this codebase
// stores W as (in x out), so those rows are our columns.
//
// Two properties the serving stack relies on:
//  * Tier-invariance: absmax, round-to-nearest and the int32 GEMV are all
//    exact, so a quantized model produces identical bits on the scalar
//    and AVX2 tiers (unlike the fp path, which only matches to tolerance).
//  * Snap-to-grid: enabling quantization overwrites the fp weights with
//    q_ij * s_j, so the fp backward pass — gradient attention runs on it —
//    differentiates the same function the quantized forward serves.
//
// The LandPooling kernel is NOT quantized: it is the frozen shared
// representation (paper §III), it is tiny next to the FC stack, and
// keeping it fp32 lets specialized heads share pooling work bit-exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace diagnet::nn {

struct QuantizedLinear {
  std::size_t in = 0, out = 0;
  /// (in x out) row-major, same layout as the fp weights.
  std::vector<std::int8_t> weights;
  /// Per output unit j: w_ij ≈ weights[i*out + j] * scales[j]. fp32 — the
  /// dequantized product sx * scales[j] is a float-precision rescale.
  std::vector<float> scales;
  bool valid() const { return out != 0; }
};

/// Quantize one (in x out) weight matrix. A zero column gets scale 1 so
/// dequantization never divides by zero; empty matrices yield an invalid
/// (inert) result.
QuantizedLinear quantize_weights(const tensor::Matrix& weight);

/// Overwrite `weight` with its dequantized codes (q_ij * s_j), the exact
/// function the quantized forward path evaluates.
void snap_to_grid(const QuantizedLinear& q, tensor::Matrix& weight);

/// out = dequant(qgemv(quant(input), q)) + bias, row by row. Rows are
/// independent (per-row activation scales), so a sample scores the same
/// bits alone or inside a batch. Uses the dispatched int8 kernels.
void quantized_forward(const QuantizedLinear& q, const tensor::Matrix& input,
                       const tensor::Matrix& bias, tensor::Matrix& out);

}  // namespace diagnet::nn
