// The microkernel table behind tensor::dispatch. Each tier fills one
// `Kernels` struct with raw-pointer fp32 primitives; ops.cpp (GEMM/GEMV/
// reductions), nn::LandPooling and nn::softmax call through the active
// table. The indirection sits at the row-block / fused-group level, never
// inside an innermost loop, so the function-pointer cost is amortised over
// hundreds of multiply-adds per call.
//
// Contract every tier must honour (bit-exactness within a tier):
//  * axpy4(c, b0..b3, a0..a3, n) must equal axpy1 applied four times in
//    order (a0 first) *for that tier's own rounding*. The AVX2 tier keeps
//    this structurally (a chain of four FMAs rooted at c[j]); the scalar
//    tier keeps it by being the only implementation both paths compile to.
//  * reduce_* and dot fix their own lane-combination order, so the same
//    input always yields the same bits on the same tier.
//  * The block entries (gemm_acc, gemm_bt) may tile, pack and reorder their
//    loops freely, but never an element's reduction: gemm_acc reproduces
//    the row-at-a-time axpy groups (one ascending-k chain per element, the
//    chain gemv builds) and gemm_bt reproduces dot, bit for bit.
#pragma once

#include <cstddef>

namespace diagnet::tensor::detail {

struct Kernels {
  const char* name;

  /// c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
  void (*axpy4)(float* c, const float* b0, const float* b1, const float* b2,
                const float* b3, float a0, float a1, float a2, float a3,
                std::size_t n);
  /// c[j] += alpha * b[j]
  void (*axpy1)(float* c, const float* b, float alpha, std::size_t n);
  /// c[j] += sum_k a[k] * b[k*ldb + j] — the single-row product. Each tier
  /// must produce the same bits here as its own axpy4/axpy1 groups would
  /// (ascending k), so a 1-row GEMM can take this fast path and still match
  /// the row it would have been inside a batch.
  void (*gemv)(float* c, const float* a, const float* b, std::size_t k,
               std::size_t n, std::size_t ldb);
  /// c[i*ldc + j] += sum_kk A(i, kk) * b[kk*ldb + j] for i < m, j < n,
  /// where A(i, kk) = a[i*a_rs + kk*a_ks] (so one entry serves both A·B
  /// and Aᵀ·B). Every element must get the bits of this tier's own
  /// axpy4/axpy1 groups over ascending k, applied to its row with C's
  /// current value as the start: a row computed inside a block equals the
  /// same row computed by gemv, whatever the block's height.
  void (*gemm_acc)(float* c, std::size_t ldc, const float* a,
                   std::size_t a_rs, std::size_t a_ks, const float* b,
                   std::size_t ldb, std::size_t m, std::size_t k,
                   std::size_t n);
  /// sum_j a[j] * b[j]
  float (*dot)(const float* a, const float* b, std::size_t n);
  /// c[i*ldc + j] = dot(a + i*lda, b + j*ldb, k) for i < m, j < n. Every
  /// element must get exactly the bits of this tier's own dot.
  void (*gemm_bt)(float* c, std::size_t ldc, const float* a,
                  std::size_t lda, const float* b, std::size_t ldb,
                  std::size_t m, std::size_t k, std::size_t n);
  /// sum_j v[j]
  float (*reduce_sum)(const float* v, std::size_t n);
  /// sum_j (v[j] - mean)^2
  float (*reduce_sq_dev)(const float* v, std::size_t n, float mean);
  /// max_j v[j]; -inf when n == 0
  float (*reduce_max)(const float* v, std::size_t n);
  /// v[j] /= denom
  void (*scale_div)(float* v, float denom, std::size_t n);
};

/// The portable tier (plain loops + `#pragma omp simd`, whatever the
/// baseline ISA auto-vectorizes to). Always available.
const Kernels& scalar_kernels();

/// The AVX2+FMA tier, or nullptr when not compiled in (non-x86 builds).
/// Runtime CPU support is dispatch.cpp's problem, not this function's.
const Kernels* avx2_kernels();

/// The table selected by tensor::dispatch (cheap relaxed atomic load).
const Kernels& active_kernels();

}  // namespace diagnet::tensor::detail
