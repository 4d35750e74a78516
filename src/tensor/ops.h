// GEMM variants and elementwise kernels over fp32 matrices. The three GEMM
// forms below cover everything a fully-connected layer's forward and
// backward passes need without ever materialising a transpose.
//
// Every GEMM cuts C into fixed 32-row blocks and hands each block to a
// microkernel chosen at startup by tensor::dispatch (scalar or AVX2+FMA —
// see dispatch.h): gemm and gemm_at_b_acc to the tier's gemm_acc
// (6 x 16 register tiles over packed 16-column panels of B on AVX2), gemm_a_bt to
// its gemm_bt (several A rows per B-row load). Above a flop threshold the
// blocks fan out over the global thread pool (util::parallel_for).
// Results are bit-identical regardless of the worker count and of how
// many rows share a call: each output element's reduction over k is fixed
// by the active tier alone — the row-at-a-time axpy groups for the
// A·B forms, the tier's dot for A·Bᵀ — never by tiling, block height or
// the thread that runs it.
#pragma once

#include "tensor/matrix.h"

namespace diagnet::tensor {

/// C = A (M x K) · B (K x N). C is resized/overwritten. A single row
/// (M == 1) runs the tier's gemv kernel — serial, no pool dispatch — with
/// the bits the row-block kernel would give it.
void gemm(const Matrix& a, const Matrix& b, Matrix& c);

/// C += A^T · B, A stored (K x M), without zeroing C first (C must
/// already be M x N). The backward pass accumulates dW straight into a
/// pre-zeroed gradient buffer instead of materialising a temporary.
void gemm_at_b_acc(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A · B^T. B is (N x K) in memory.
void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& c);

/// C += alpha * A (shapes must match).
void axpy(float alpha, const Matrix& a, Matrix& c);

/// out(r, c) = m(r, c) + bias(0, c): broadcast a row bias over all rows.
void add_row_bias(Matrix& m, const Matrix& bias);

/// out(0, c) += sum_r grad(r, c): the bias backward, accumulated (out
/// must be 1 x N).
void sum_rows_acc(const Matrix& grad, Matrix& out);

}  // namespace diagnet::tensor
