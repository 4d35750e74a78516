// Explicit AVX2+FMA microkernels over fp32 (8 lanes per ymm register),
// compiled with per-function target attributes so the translation unit
// itself builds at the baseline ISA — the binary only executes these after
// dispatch.cpp has verified the CPU reports avx2+fma.
//
// Rounding-order contract (see kernels.h): axpy4 is a chain of four FMAs
// rooted at c[j], which is bit-identical to calling axpy1 four times — so
// on this tier the fused GEMM groups, the register tiles of gemm_acc and
// any sequential fallback agree exactly. Horizontal reductions fix one
// lane-combination order: (lo128 + hi128), then lanes (0+2, 1+3), then
// lane0 + lane1; gemm_bt's dot blocks keep dot's accumulators and that
// combine.
#include "tensor/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#define DIAGNET_AVX2 __attribute__((target("avx2,fma")))
// Fully unrolls the per-row loops of the register tiles, so their
// accumulator arrays live in ymm registers rather than on the stack.
#define DIAGNET_UNROLL _Pragma("GCC unroll 8")

namespace diagnet::tensor::detail {

namespace {

/// Lanes per ymm register.
constexpr std::size_t kLanes = 8;

DIAGNET_AVX2 inline float hsum(__m256 v) {
  const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(v),
                               _mm256_extractf128_ps(v, 1));
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  return _mm_cvtss_f32(s2) + _mm_cvtss_f32(_mm_movehdup_ps(s2));
}

DIAGNET_AVX2 inline float hmax(__m256 v) {
  const __m128 s4 = _mm_max_ps(_mm256_castps256_ps128(v),
                               _mm256_extractf128_ps(v, 1));
  const __m128 s2 = _mm_max_ps(s4, _mm_movehl_ps(s4, s4));
  return std::max(_mm_cvtss_f32(s2), _mm_cvtss_f32(_mm_movehdup_ps(s2)));
}

DIAGNET_AVX2 void avx2_axpy4(float* c, const float* b0, const float* b1,
                             const float* b2, const float* b3, float a0,
                             float a1, float a2, float a3, std::size_t n) {
  const __m256 va0 = _mm256_set1_ps(a0), va1 = _mm256_set1_ps(a1);
  const __m256 va2 = _mm256_set1_ps(a2), va3 = _mm256_set1_ps(a3);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    __m256 acc = _mm256_loadu_ps(c + j);
    acc = _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0 + j), acc);
    acc = _mm256_fmadd_ps(va1, _mm256_loadu_ps(b1 + j), acc);
    acc = _mm256_fmadd_ps(va2, _mm256_loadu_ps(b2 + j), acc);
    acc = _mm256_fmadd_ps(va3, _mm256_loadu_ps(b3 + j), acc);
    _mm256_storeu_ps(c + j, acc);
  }
  for (; j < n; ++j) {
    // Same FMA chain as the vector body, one lane at a time.
    float acc = c[j];
    acc = std::fma(a0, b0[j], acc);
    acc = std::fma(a1, b1[j], acc);
    acc = std::fma(a2, b2[j], acc);
    acc = std::fma(a3, b3[j], acc);
    c[j] = acc;
  }
}

DIAGNET_AVX2 void avx2_axpy1(float* c, const float* b, float alpha,
                             std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    _mm256_storeu_ps(
        c + j,
        _mm256_fmadd_ps(va, _mm256_loadu_ps(b + j), _mm256_loadu_ps(c + j)));
  for (; j < n; ++j) c[j] = std::fma(alpha, b[j], c[j]);
}

/// Row-at-a-time C(i, :) += A(i, :) · B in the fused-group structure
/// (groups of four ascending k via axpy4, remainder via axpy1). This is
/// gemv, and gemm_acc's path for the columns past its last full panel.
DIAGNET_AVX2 void axpy_rows(float* c, std::size_t ldc, const float* a,
                            std::size_t a_rs, std::size_t a_ks,
                            const float* b, std::size_t ldb, std::size_t m,
                            std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    float* ci = c + i * ldc;
    const float* ai = a + i * a_rs;
    std::size_t kk = 0;
    for (; kk + 4 <= k; kk += 4)
      avx2_axpy4(ci, b + kk * ldb, b + (kk + 1) * ldb, b + (kk + 2) * ldb,
                 b + (kk + 3) * ldb, ai[kk * a_ks], ai[(kk + 1) * a_ks],
                 ai[(kk + 2) * a_ks], ai[(kk + 3) * a_ks], n);
    for (; kk < k; ++kk) avx2_axpy1(ci, b + kk * ldb, ai[kk * a_ks], n);
  }
}

/// Single-row product: streaming B in memory order keeps the prefetcher
/// happy. (A register-blocked column variant was measured slower here:
/// its row stride per k step defeats prefetch on the weight panels, and
/// one row cannot amortise packing them.)
DIAGNET_AVX2 void avx2_gemv(float* c, const float* a, const float* b,
                            std::size_t k, std::size_t n, std::size_t ldb) {
  axpy_rows(c, n, a, 0, 1, b, ldb, 1, k, n);
}

/// Columns per packed panel: two ymm registers per tile row.
constexpr std::size_t kPanel = 2 * kLanes;

/// Copies the 16-column panel B(:, 0:16) k x 16 contiguous into this
/// thread's scratch: 64-byte aligned (one cache line per k step), grown to
/// the largest k seen (20 KiB at k = 317), so the panel sits in L1 while
/// every tile of the block sweeps it.
DIAGNET_AVX2 const float* pack_panel(const float* b, std::size_t ldb,
                                     std::size_t k) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < kPanel * k + kPanel) scratch.resize(kPanel * k + kPanel);
  const auto addr = reinterpret_cast<std::uintptr_t>(scratch.data());
  float* panel = scratch.data() + ((64 - addr % 64) % 64) / sizeof(float);
  for (std::size_t kk = 0; kk < k; ++kk) {
    _mm256_store_ps(panel + kPanel * kk, _mm256_loadu_ps(b + kk * ldb));
    _mm256_store_ps(panel + kPanel * kk + kLanes,
                    _mm256_loadu_ps(b + kk * ldb + kLanes));
  }
  return panel;
}

/// MR x 16 register tile of C against a 16-column panel of B with row
/// stride ldp (the packed copy, or B itself). Each element is one FMA
/// chain over ascending k rooted at C's current value — the chain
/// axpy4/axpy1 build lane by lane — so the tile changes no bits.
template <int MR>
DIAGNET_AVX2 inline void tile_mr16(float* c, std::size_t ldc, const float* a,
                                   std::size_t a_rs, std::size_t a_ks,
                                   const float* panel, std::size_t ldp,
                                   std::size_t k) {
  __m256 lo[MR], hi[MR];
  DIAGNET_UNROLL
  for (int r = 0; r < MR; ++r) {
    lo[r] = _mm256_loadu_ps(c + r * ldc);
    hi[r] = _mm256_loadu_ps(c + r * ldc + kLanes);
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const __m256 b_lo = _mm256_loadu_ps(panel + ldp * kk);
    const __m256 b_hi = _mm256_loadu_ps(panel + ldp * kk + kLanes);
    const float* ak = a + kk * a_ks;
    DIAGNET_UNROLL
    for (int r = 0; r < MR; ++r) {
      const __m256 ar = _mm256_broadcast_ss(ak + r * a_rs);
      lo[r] = _mm256_fmadd_ps(ar, b_lo, lo[r]);
      hi[r] = _mm256_fmadd_ps(ar, b_hi, hi[r]);
    }
  }
  DIAGNET_UNROLL
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + r * ldc, lo[r]);
    _mm256_storeu_ps(c + r * ldc + kLanes, hi[r]);
  }
}

/// Per 16-column panel, a sweep of register tiles down the block: the rows
/// split as evenly as possible into tiles of at most 6 (12 accumulators +
/// 2 panel halves + 1 broadcast = 15 of the 16 ymm registers) and, for
/// m >= 3, at least 3, so no tile has too few FMA chains in flight.
DIAGNET_AVX2 void avx2_gemm_acc(float* c, std::size_t ldc, const float* a,
                                std::size_t a_rs, std::size_t a_ks,
                                const float* b, std::size_t ldb,
                                std::size_t m, std::size_t k, std::size_t n) {
  constexpr std::size_t kMr = 6;
  // Two rows make a tile of four FMA chains, too few to hide the FMA
  // latency; streaming B row by row is faster there.
  if (m < 3) {
    axpy_rows(c, ldc, a, a_rs, a_ks, b, ldb, m, k, n);
    return;
  }
  const std::size_t tiles = (m + kMr - 1) / kMr;
  // A lone tile reads each panel once, so copying it first would only add
  // traffic: pack when several tiles share the panel.
  const bool pack = tiles > 1;
  const std::size_t n16 = n - n % kPanel;
  for (std::size_t j0 = 0; j0 < n16; j0 += kPanel) {
    const float* panel = pack ? pack_panel(b + j0, ldb, k) : b + j0;
    const std::size_t ldp = pack ? kPanel : ldb;
    for (std::size_t t = 0, i = 0; t < tiles; ++t) {
      const std::size_t rows = (m - i) / (tiles - t);
      float* ct = c + i * ldc + j0;
      const float* at = a + i * a_rs;
      switch (rows) {
        case 6: tile_mr16<6>(ct, ldc, at, a_rs, a_ks, panel, ldp, k); break;
        case 5: tile_mr16<5>(ct, ldc, at, a_rs, a_ks, panel, ldp, k); break;
        case 4: tile_mr16<4>(ct, ldc, at, a_rs, a_ks, panel, ldp, k); break;
        default: tile_mr16<3>(ct, ldc, at, a_rs, a_ks, panel, ldp, k); break;
      }
      i += rows;
    }
  }
  if (n16 < n)
    axpy_rows(c + n16, ldc, a, a_rs, a_ks, b + n16, ldb, m, k, n - n16);
}

/// Four independent accumulators for ILP; the lane-combination order
/// ((acc0+acc1)+(acc2+acc3), then hsum) is fixed, so the same input always
/// reduces the same way on this tier.
DIAGNET_AVX2 float avx2_dot(const float* a, const float* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 4 * kLanes <= n; j += 4 * kLanes) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 8),
                           _mm256_loadu_ps(b + j + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 16),
                           _mm256_loadu_ps(b + j + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 24),
                           _mm256_loadu_ps(b + j + 24), acc3);
  }
  for (; j + kLanes <= n; j += kLanes)
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                           acc0);
  float s = hsum(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                               _mm256_add_ps(acc2, acc3)));
  for (; j < n; ++j) s = std::fma(a[j], b[j], s);
  return s;
}

/// acc[r][s] += a_r[j:j+8] * b_s[j:j+8] over a 3 x 3 block of rows: six
/// loads feed nine FMAs.
DIAGNET_AVX2 inline void dot33_step(__m256 (&acc)[3][3], const float* a,
                                    std::size_t lda, const float* b,
                                    std::size_t ldb, std::size_t j) {
  const __m256 a0 = _mm256_loadu_ps(a + j);
  const __m256 a1 = _mm256_loadu_ps(a + lda + j);
  const __m256 a2 = _mm256_loadu_ps(a + 2 * lda + j);
  DIAGNET_UNROLL
  for (int s = 0; s < 3; ++s) {
    const __m256 bs = _mm256_loadu_ps(b + s * ldb + j);
    acc[0][s] = _mm256_fmadd_ps(a0, bs, acc[0][s]);
    acc[1][s] = _mm256_fmadd_ps(a1, bs, acc[1][s]);
    acc[2][s] = _mm256_fmadd_ps(a2, bs, acc[2][s]);
  }
}

/// c[r*ldc + s] = dot(a_r, b_s, n) for a 3 x 3 block of rows. avx2_dot's
/// four accumulators are independent chains, each over its own lanes, so
/// the block runs them one after another: pass q sums lanes [8q, 8q + 8)
/// of every 32-wide stride (pass 0 also the 8-wide loop) with nine
/// accumulators live. Combine order and FMA tail are avx2_dot's, so every
/// element gets avx2_dot's bits.
DIAGNET_AVX2 void dot_block33(const float* a, std::size_t lda, const float* b,
                              std::size_t ldb, std::size_t n, float* c,
                              std::size_t ldc) {
  const std::size_t n32 = n - n % (4 * kLanes), n8 = n - n % kLanes;
  __m256 part[4][3][3];
  for (std::size_t q = 0; q < 4; ++q) {
    __m256 acc[3][3];
    DIAGNET_UNROLL
    for (int r = 0; r < 3; ++r) {
      DIAGNET_UNROLL
      for (int s = 0; s < 3; ++s) acc[r][s] = _mm256_setzero_ps();
    }
    for (std::size_t j = kLanes * q; j < n32; j += 4 * kLanes)
      dot33_step(acc, a, lda, b, ldb, j);
    if (q == 0)
      for (std::size_t j = n32; j < n8; j += kLanes)
        dot33_step(acc, a, lda, b, ldb, j);
    DIAGNET_UNROLL
    for (int r = 0; r < 3; ++r) {
      DIAGNET_UNROLL
      for (int s = 0; s < 3; ++s) part[q][r][s] = acc[r][s];
    }
  }
  for (int r = 0; r < 3; ++r) {
    for (int s = 0; s < 3; ++s) {
      const float* ar = a + r * lda;
      const float* bs = b + s * ldb;
      float sum = hsum(
          _mm256_add_ps(_mm256_add_ps(part[0][r][s], part[1][r][s]),
                        _mm256_add_ps(part[2][r][s], part[3][r][s])));
      for (std::size_t t = n8; t < n; ++t) sum = std::fma(ar[t], bs[t], sum);
      c[r * ldc + s] = sum;
    }
  }
}

/// B rows in threes on the outside, so each triple (6 KiB of weight rows
/// at k = 512) is read once per block and met by 3 x 3 dot blocks down the
/// A rows. Rows and columns left over from the triples, and blocks of one
/// or two rows, take avx2_dot one element at a time.
DIAGNET_AVX2 void avx2_gemm_bt(float* c, std::size_t ldc, const float* a,
                               std::size_t lda, const float* b,
                               std::size_t ldb, std::size_t m, std::size_t k,
                               std::size_t n) {
  const std::size_t m3 = m - m % 3, n3 = n - n % 3;
  for (std::size_t j = 0; j < n3; j += 3)
    for (std::size_t i = 0; i < m3; i += 3)
      dot_block33(a + i * lda, lda, b + j * ldb, ldb, k, c + i * ldc + j,
                  ldc);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i < m3 ? n3 : 0; j < n; ++j)
      c[i * ldc + j] = avx2_dot(a + i * lda, b + j * ldb, k);
}

/// Below this span the vector reductions lose to a plain loop: the
/// broadcast/horizontal-combine overhead is fixed while the work shrinks.
/// LandPooling reduces over the available landmarks (~10), so its single-
/// sample path lives entirely under this threshold — measured, the vector
/// body made pooling *slower* than the scalar tier there. The short path
/// runs the identical sequential order the scalar tier uses, so the
/// choice is still a pure function of n (deterministic per tier).
constexpr std::size_t kSmallReduce = 16;

DIAGNET_AVX2 float avx2_reduce_sum(const float* v, std::size_t n) {
  if (n < kSmallReduce) {
    float s = 0.0f;
    for (std::size_t j = 0; j < n; ++j) s += v[j];
    return s;
  }
  __m256 acc = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(v + j));
  float s = hsum(acc);
  for (; j < n; ++j) s += v[j];
  return s;
}

DIAGNET_AVX2 float avx2_reduce_sq_dev(const float* v, std::size_t n,
                                      float mean) {
  if (n < kSmallReduce) {
    float s = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      const float d = v[j] - mean;
      s += d * d;
    }
    return s;
  }
  const __m256 vm = _mm256_set1_ps(mean);
  __m256 acc = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(v + j), vm);
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  float s = hsum(acc);
  for (; j < n; ++j) {
    const float d = v[j] - mean;
    s = std::fma(d, d, s);
  }
  return s;
}

DIAGNET_AVX2 float avx2_reduce_max(const float* v, std::size_t n) {
  float m = -std::numeric_limits<float>::infinity();
  if (n < kSmallReduce) {
    for (std::size_t j = 0; j < n; ++j) m = std::max(m, v[j]);
    return m;
  }
  __m256 acc = _mm256_set1_ps(m);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    acc = _mm256_max_ps(acc, _mm256_loadu_ps(v + j));
  m = hmax(acc);
  for (; j < n; ++j) m = std::max(m, v[j]);
  return m;
}

DIAGNET_AVX2 void avx2_scale_div(float* v, float denom, std::size_t n) {
  const __m256 vd = _mm256_set1_ps(denom);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    _mm256_storeu_ps(v + j, _mm256_div_ps(_mm256_loadu_ps(v + j), vd));
  for (; j < n; ++j) v[j] /= denom;
}

}  // namespace

const Kernels* avx2_kernels() {
  static const Kernels table = {
      "avx2",          avx2_axpy4,      avx2_axpy1,
      avx2_gemv,       avx2_gemm_acc,   avx2_dot,
      avx2_gemm_bt,    avx2_reduce_sum,
      avx2_reduce_sq_dev, avx2_reduce_max, avx2_scale_div,
  };
  return &table;
}

}  // namespace diagnet::tensor::detail

#else  // non-x86 (or unsupported compiler): no AVX2 tier in this binary.

namespace diagnet::tensor::detail {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace diagnet::tensor::detail

#endif
