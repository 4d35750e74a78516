// Portable microkernel tier: the exact loop shapes the tensor ops used
// before runtime dispatch existed, factored behind the Kernels table. With
// OpenMP these auto-vectorize to whatever the *baseline* target ISA offers
// (SSE2 on x86-64 unless DIAGNET_NATIVE is re-enabled); correctness never
// depends on that, only throughput.
#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/kernels.h"

namespace diagnet::tensor::detail {

namespace {

void scalar_axpy4(float* c, const float* b0, const float* b1,
                  const float* b2, const float* b3, float a0, float a1,
                  float a2, float a3, std::size_t n) {
#pragma omp simd
  for (std::size_t j = 0; j < n; ++j)
    c[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
}

void scalar_axpy1(float* c, const float* b, float alpha, std::size_t n) {
#pragma omp simd
  for (std::size_t j = 0; j < n; ++j) c[j] += alpha * b[j];
}

// The fused-group structure (groups of four ascending k, remainder one at
// a time), each group applied to every row of the block before the next,
// so the group's four B rows are read once per block. Every element still
// sees its groups in ascending k, and gemv is the 1-row case of the same
// loop, so scalar gemv == scalar gemm on a 1-row operand bit-for-bit
// whatever the compiler does to either.
void scalar_gemm_acc(float* c, std::size_t ldc, const float* a,
                     std::size_t a_rs, std::size_t a_ks, const float* b,
                     std::size_t ldb, std::size_t m, std::size_t k,
                     std::size_t n) {
  std::size_t kk = 0;
  for (; kk + 4 <= k; kk += 4)
    for (std::size_t i = 0; i < m; ++i) {
      const float* ai = a + i * a_rs;
      scalar_axpy4(c + i * ldc, b + kk * ldb, b + (kk + 1) * ldb,
                   b + (kk + 2) * ldb, b + (kk + 3) * ldb, ai[kk * a_ks],
                   ai[(kk + 1) * a_ks], ai[(kk + 2) * a_ks],
                   ai[(kk + 3) * a_ks], n);
    }
  for (; kk < k; ++kk)
    for (std::size_t i = 0; i < m; ++i)
      scalar_axpy1(c + i * ldc, b + kk * ldb, a[i * a_rs + kk * a_ks], n);
}

void scalar_gemv(float* c, const float* a, const float* b, std::size_t k,
                 std::size_t n, std::size_t ldb) {
  scalar_gemm_acc(c, n, a, 0, 1, b, ldb, 1, k, n);
}

// Kept out of line: the simd reduction's lane split is the compiler's
// choice, so gemm_bt must call this very body to match dot bit-for-bit.
[[gnu::noinline]] float scalar_dot(const float* a, const float* b,
                                    std::size_t n) {
  float s = 0.0f;
#pragma omp simd reduction(+ : s)
  for (std::size_t j = 0; j < n; ++j) s += a[j] * b[j];
  return s;
}

void scalar_gemm_bt(float* c, std::size_t ldc, const float* a,
                    std::size_t lda, const float* b, std::size_t ldb,
                    std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      c[i * ldc + j] = scalar_dot(a + i * lda, b + j * ldb, k);
}

float scalar_reduce_sum(const float* v, std::size_t n) {
  float s = 0.0f;
#pragma omp simd reduction(+ : s)
  for (std::size_t j = 0; j < n; ++j) s += v[j];
  return s;
}

float scalar_reduce_sq_dev(const float* v, std::size_t n, float mean) {
  float s = 0.0f;
#pragma omp simd reduction(+ : s)
  for (std::size_t j = 0; j < n; ++j) {
    const float d = v[j] - mean;
    s += d * d;
  }
  return s;
}

float scalar_reduce_max(const float* v, std::size_t n) {
  float m = -std::numeric_limits<float>::infinity();
  for (std::size_t j = 0; j < n; ++j) m = std::max(m, v[j]);
  return m;
}

void scalar_scale_div(float* v, float denom, std::size_t n) {
#pragma omp simd
  for (std::size_t j = 0; j < n; ++j) v[j] /= denom;
}

}  // namespace

const Kernels& scalar_kernels() {
  static const Kernels table = {
      "scalar",          scalar_axpy4,      scalar_axpy1,
      scalar_gemv,       scalar_gemm_acc,   scalar_dot,
      scalar_gemm_bt,    scalar_reduce_sum,
      scalar_reduce_sq_dev, scalar_reduce_max, scalar_scale_div,
  };
  return table;
}

}  // namespace diagnet::tensor::detail
