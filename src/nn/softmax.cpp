#include "nn/softmax.h"

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
    float* row = out.row_ptr(r);
    const float mx = K.reduce_max(row, out.cols());
    float sum = 0.0f;
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
  const double inv_b = 1.0 / static_cast<double>(logits.rows());
  return softmax_cross_entropy_sum(logits, labels.data(), labels.size(), grad,
                                   inv_b) *
         inv_b;
}

double softmax_cross_entropy_sum(const Matrix& logits,
                                 const std::size_t* labels, std::size_t n,
                                 Matrix* grad, double grad_scale) {
  DIAGNET_REQUIRE(n == logits.rows());
  if (grad) grad->resize(logits.rows(), logits.cols());
  const std::size_t c = logits.cols();
  const auto scale = static_cast<float>(grad_scale);
  const tensor::detail::Kernels& K = tensor::detail::active_kernels();
  double loss = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    DIAGNET_REQUIRE(labels[r] < c);
    const float* in = logits.row_ptr(r);
    const float mx = K.reduce_max(in, c);
    // One pass computes the exponentials (into the grad row when wanted)
    // and their sum; no per-row heap temporary.
    float sum = 0.0f;
    if (grad) {
      float* out = grad->row_ptr(r);
      for (std::size_t j = 0; j < c; ++j) {
        out[j] = std::exp(in[j] - mx);
        sum += out[j];
      }
      const float inv = 1.0f / sum;
      for (std::size_t j = 0; j < c; ++j) out[j] *= inv;
      out[labels[r]] -= 1.0f;
      for (std::size_t j = 0; j < c; ++j) out[j] *= scale;
    } else {
      for (std::size_t j = 0; j < c; ++j) sum += std::exp(in[j] - mx);
    }
    // -log softmax(x)[label] = log(sum) - (x[label] - max), in double: it
    // stays accurate where the label's fp32 probability would underflow.
    loss += std::log(static_cast<double>(sum)) -
            (static_cast<double>(in[labels[r]]) - mx);
  }
  return loss;
}

Matrix ideal_label_grads(const Matrix& logits,
                         const std::vector<std::size_t>& targets) {
  DIAGNET_REQUIRE(targets.size() == logits.rows());
  Matrix g = softmax(logits);
  for (std::size_t r = 0; r < g.rows(); ++r) {
    DIAGNET_REQUIRE(targets[r] < g.cols());
    g(r, targets[r]) -= 1.0f;
  }
  return g;
}

}  // namespace diagnet::nn
