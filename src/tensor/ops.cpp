#include "tensor/ops.h"

#include <algorithm>

#include "tensor/kernels.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace diagnet::tensor {

namespace {

using detail::Kernels;

// Above this many multiply-adds the row loop fans out over the thread
// pool. Chosen so one task is still a few hundred microseconds of work —
// and high enough that the 16-row shard GEMMs of the data-parallel trainer
// stay serial inside their shard worker instead of re-fanning out.
constexpr std::size_t kParallelMacs = 1u << 22;
// Rows of C per parallel task. Fixed (never derived from the worker
// count), so the task decomposition — and therefore every floating-point
// reduction order — is identical for any pool size.
constexpr std::size_t kRowBlock = 32;

/// Run fn(r0, rows) over ceil(n / kRowBlock) fixed-size row blocks, in
/// parallel when the kernel is large enough. The block partition is a pure
/// function of n, so numeric results cannot depend on the worker count.
template <typename Fn>
void for_row_blocks(std::size_t n, std::size_t macs, const Fn& fn) {
  const std::size_t blocks = (n + kRowBlock - 1) / kRowBlock;
  const auto run = [&](std::size_t blk) {
    const std::size_t r0 = blk * kRowBlock;
    fn(r0, std::min(n, r0 + kRowBlock) - r0);
  };
  if (macs < kParallelMacs || blocks < 2) {
    for (std::size_t blk = 0; blk < blocks; ++blk) run(blk);
    return;
  }
  util::parallel_for(blocks, run);
}

}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  DIAGNET_REQUIRE(a.cols() == b.rows());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  c.resize_zero(m, n);
  if (m == 0 || n == 0 || k == 0) return;  // C is already all zeros
  const Kernels& K = detail::active_kernels();
  if (m == 1) {
    // Single-row fast path; the gemv kernel contract guarantees the same
    // bits the row-block kernel would produce on this tier.
    K.gemv(c.row_ptr(0), a.row_ptr(0), b.row_ptr(0), k, n, b.cols());
    return;
  }
  for_row_blocks(m, m * k * n, [&](std::size_t r0, std::size_t rows) {
    K.gemm_acc(c.row_ptr(r0), n, a.row_ptr(r0), k, 1, b.data(), n, rows, k,
               n);
  });
}

void gemm_at_b_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  DIAGNET_REQUIRE(a.rows() == b.rows());
  DIAGNET_REQUIRE(c.rows() == a.cols() && c.cols() == b.cols());
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (m == 0 || n == 0 || k == 0) return;  // accumulate nothing
  const Kernels& K = detail::active_kernels();
  // Row i of C reads column i of A: A(i, kk) sits at a[kk * m + i].
  for_row_blocks(m, m * k * n, [&](std::size_t r0, std::size_t rows) {
    K.gemm_acc(c.row_ptr(r0), n, a.data() + r0, 1, m, b.data(), n, rows, k,
               n);
  });
}

void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& c) {
  DIAGNET_REQUIRE(a.cols() == b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (k == 0) {
    c.resize_zero(m, n);  // dot over an empty k is 0, not stale memory
    return;
  }
  c.resize(m, n);  // every element is overwritten; no zero-fill needed
  if (m == 0 || n == 0) return;
  const Kernels& K = detail::active_kernels();
  // C(i, j) = dot(A row i, B row j): both operands stream contiguously.
  for_row_blocks(m, m * k * n, [&](std::size_t r0, std::size_t rows) {
    K.gemm_bt(c.row_ptr(r0), n, a.row_ptr(r0), k, b.data(), k, rows, k, n);
  });
}

void axpy(float alpha, const Matrix& a, Matrix& c) {
  DIAGNET_REQUIRE(a.same_shape(c));
  if (a.size() == 0) return;
  detail::active_kernels().axpy1(c.data(), a.data(), alpha, a.size());
}

void add_row_bias(Matrix& m, const Matrix& bias) {
  DIAGNET_REQUIRE(bias.rows() == 1 && bias.cols() == m.cols());
  if (m.cols() == 0) return;
  const Kernels& K = detail::active_kernels();
  for (std::size_t r = 0; r < m.rows(); ++r)
    K.axpy1(m.row_ptr(r), bias.data(), 1.0f, m.cols());
}

void sum_rows_acc(const Matrix& grad, Matrix& out) {
  DIAGNET_REQUIRE(out.rows() == 1 && out.cols() == grad.cols());
  if (grad.rows() == 0 || grad.cols() == 0) return;  // nothing to add
  const Kernels& K = detail::active_kernels();
  float* o = out.data();
  for (std::size_t r = 0; r < grad.rows(); ++r)
    K.axpy1(o, grad.row_ptr(r), 1.0f, grad.cols());
}

}  // namespace diagnet::tensor
