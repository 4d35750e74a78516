#include "nn/softmax.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "util/require.h"

namespace diagnet::nn {

Matrix softmax(const Matrix& logits) {
  Matrix out = logits;
  // Dispatched max/divide; both are exact under any evaluation order, so
  // softmax produces identical bits on every kernel tier (the sum of
  // exponentials stays sequential on purpose).
  const tensor::detail::Kernels& K = tensor::detail::active_kernels();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    double* row = out.row_ptr(r);
    const double mx = K.reduce_max(row, out.cols());
    double sum = 0.0;
    for (std::size_t c = 0; c < out.cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    K.scale_div(row, sum, out.cols());
  }
  return out;
}

double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::size_t>& labels,
                             Matrix* grad) {
  DIAGNET_REQUIRE(labels.size() == logits.rows());
  const Matrix probs = softmax(logits);
  const double inv_b = 1.0 / static_cast<double>(logits.rows());
  double loss = 0.0;
  if (grad) *grad = probs;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    DIAGNET_REQUIRE(labels[r] < logits.cols());
    // Clamp avoids -inf on (pathological) zero probability.
    loss -= std::log(std::max(probs(r, labels[r]), 1e-300));
    if (grad) {
      (*grad)(r, labels[r]) -= 1.0;
      double* row = grad->row_ptr(r);
      for (std::size_t c = 0; c < grad->cols(); ++c) row[c] *= inv_b;
    }
  }
  return loss * inv_b;
}

double softmax_cross_entropy_sum(const Matrix& logits,
                                 const std::size_t* labels, std::size_t n,
                                 Matrix* grad, double grad_scale) {
  DIAGNET_REQUIRE(n == logits.rows());
  if (grad) grad->resize(logits.rows(), logits.cols());
  const std::size_t c = logits.cols();
  const tensor::detail::Kernels& K = tensor::detail::active_kernels();
  double loss = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    DIAGNET_REQUIRE(labels[r] < c);
    const double* in = logits.row_ptr(r);
    const double mx = K.reduce_max(in, c);
    // One pass computes the exponentials (into the grad row when wanted)
    // and their sum; no per-row heap temporary.
    double sum = 0.0;
    if (grad) {
      double* out = grad->row_ptr(r);
      for (std::size_t j = 0; j < c; ++j) {
        out[j] = std::exp(in[j] - mx);
        sum += out[j];
      }
      const double inv = 1.0 / sum;
      loss -= std::log(std::max(out[labels[r]] * inv, 1e-300));
      for (std::size_t j = 0; j < c; ++j) out[j] *= inv;
      out[labels[r]] -= 1.0;
      for (std::size_t j = 0; j < c; ++j) out[j] *= grad_scale;
    } else {
      double p_label = 0.0;
      for (std::size_t j = 0; j < c; ++j) {
        const double e = std::exp(in[j] - mx);
        sum += e;
        if (j == labels[r]) p_label = e;
      }
      loss -= std::log(std::max(p_label / sum, 1e-300));
    }
  }
  return loss;
}

Matrix ideal_label_grads(const Matrix& logits,
                         const std::vector<std::size_t>& targets) {
  DIAGNET_REQUIRE(targets.size() == logits.rows());
  Matrix g = softmax(logits);
  for (std::size_t r = 0; r < g.rows(); ++r) {
    DIAGNET_REQUIRE(targets[r] < g.cols());
    g(r, targets[r]) -= 1.0;
  }
  return g;
}

}  // namespace diagnet::nn
