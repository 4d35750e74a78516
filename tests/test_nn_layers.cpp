// Unit tests for Linear and the softmax/cross-entropy losses, including
// finite-difference gradient checks of every parameter and of the input
// path (the input gradients feed DiagNet's attention mechanism).

#include <gtest/gtest.h>

#include "nn/linear.h"
#include "nn/softmax.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace diagnet::nn {
namespace {

using test::finite_difference;
using test::random_matrix;
using test::rel_error;

Matrix forward(const Linear& layer, const Matrix& input) {
  Matrix out;
  layer.forward_into(input, out);
  return out;
}

TEST(Linear, ForwardMatchesManualComputation) {
  util::Rng rng(1);
  Linear layer(2, 2, rng);
  layer.weight().value = Matrix{{1.0, 2.0}, {3.0, 4.0}};
  layer.bias().value = Matrix{{0.5, -0.5}};
  const Matrix out = forward(layer, Matrix{{1.0, 1.0}});
  EXPECT_DOUBLE_EQ(out(0, 0), 4.5);   // 1*1 + 1*3 + 0.5
  EXPECT_DOUBLE_EQ(out(0, 1), 5.5);   // 1*2 + 1*4 - 0.5
}

TEST(Linear, RejectsWrongInputWidth) {
  util::Rng rng(2);
  Linear layer(3, 2, rng);
  EXPECT_THROW(forward(layer, Matrix(1, 4)), std::logic_error);
}

TEST(Linear, GradientCheckAllPaths) {
  util::Rng rng(3);
  Linear layer(4, 3, rng);
  Matrix input = random_matrix(5, 4, 7);
  const Matrix target = random_matrix(5, 3, 8);

  // Scalar loss: 0.5 * ||forward(input) - target||^2.
  const auto loss = [&] {
    const Matrix out = forward(layer, input);
    double l = 0.0;
    for (std::size_t r = 0; r < out.rows(); ++r)
      for (std::size_t c = 0; c < out.cols(); ++c) {
        const double d = out(r, c) - target(r, c);
        l += 0.5 * d * d;
      }
    return l;
  };

  // Analytic gradients: the training backward (dW, db, dX) and the
  // input-only backward the attention path uses.
  Matrix grad_out = forward(layer, input);
  grad_out -= target;
  Matrix grad_w(4, 3), grad_b(1, 3), grad_in, grad_in_only;
  layer.backward_into(input, grad_out, grad_w, grad_b, &grad_in);
  layer.backward_input(grad_out, grad_in_only);

  for (std::size_t r = 0; r < layer.weight().value.rows(); ++r)
    for (std::size_t c = 0; c < layer.weight().value.cols(); ++c) {
      const double fd =
          finite_difference(loss, layer.weight().value(r, c));
      EXPECT_LT(rel_error(fd, grad_w(r, c)), 1e-5);
    }
  for (std::size_t c = 0; c < layer.bias().value.cols(); ++c) {
    const double fd = finite_difference(loss, layer.bias().value(0, c));
    EXPECT_LT(rel_error(fd, grad_b(0, c)), 1e-5);
  }
  for (std::size_t r = 0; r < input.rows(); ++r)
    for (std::size_t c = 0; c < input.cols(); ++c) {
      const double fd = finite_difference(loss, input(r, c));
      EXPECT_LT(rel_error(fd, grad_in(r, c)), 1e-5);
      EXPECT_LT(rel_error(fd, grad_in_only(r, c)), 1e-5);
    }
}

TEST(Linear, GradientsAccumulateAcrossBackwards) {
  util::Rng rng(4);
  Linear layer(2, 2, rng);
  const Matrix input = random_matrix(3, 2, 9);
  const Matrix grad = random_matrix(3, 2, 10);
  Matrix grad_w(2, 2), grad_b(1, 2);
  layer.backward_into(input, grad, grad_w, grad_b, nullptr);
  const double once_w = grad_w(0, 0);
  const double once_b = grad_b(0, 0);
  layer.backward_into(input, grad, grad_w, grad_b, nullptr);
  EXPECT_NEAR(grad_w(0, 0), 2.0 * once_w, 1e-12);
  EXPECT_NEAR(grad_b(0, 0), 2.0 * once_b, 1e-12);
}

TEST(Softmax, RowsSumToOne) {
  const Matrix probs = softmax(random_matrix(4, 6, 11, 3.0));
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      EXPECT_GT(probs(r, c), 0.0);
      sum += probs(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Softmax, StableForHugeLogits) {
  const Matrix probs = softmax(Matrix{{1000.0, 1001.0}});
  EXPECT_NEAR(probs(0, 0) + probs(0, 1), 1.0, 1e-12);
  EXPECT_GT(probs(0, 1), probs(0, 0));
  EXPECT_FALSE(std::isnan(probs(0, 0)));
}

TEST(SoftmaxXent, LossOfPerfectPredictionIsSmall) {
  const Matrix logits{{20.0, 0.0, 0.0}};
  EXPECT_LT(softmax_cross_entropy(logits, {0}, nullptr), 1e-6);
}

TEST(SoftmaxXent, UniformLogitsGiveLogC) {
  const Matrix logits(2, 4);  // all-zero logits -> uniform
  EXPECT_NEAR(softmax_cross_entropy(logits, {1, 3}, nullptr),
              std::log(4.0), 1e-12);
}

TEST(SoftmaxXent, GradientMatchesFiniteDifference) {
  Matrix logits = random_matrix(3, 5, 12);
  const std::vector<std::size_t> labels{1, 4, 0};
  Matrix grad;
  softmax_cross_entropy(logits, labels, &grad);
  const auto loss = [&] {
    return softmax_cross_entropy(logits, labels, nullptr);
  };
  for (std::size_t r = 0; r < logits.rows(); ++r)
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const double fd = finite_difference(loss, logits(r, c));
      EXPECT_LT(rel_error(fd, grad(r, c)), 1e-5);
    }
}

TEST(SoftmaxXent, RejectsBadLabel) {
  const Matrix logits(1, 3);
  EXPECT_THROW(softmax_cross_entropy(logits, {3}, nullptr),
               std::logic_error);
}

TEST(IdealLabelGrad, IsSoftmaxMinusOnehot) {
  const Matrix logits{{1.0, 2.0, 0.5}};
  const Matrix g = ideal_label_grads(logits, {1});
  const Matrix probs = softmax(logits);
  EXPECT_NEAR(g(0, 0), probs(0, 0), 1e-12);
  EXPECT_NEAR(g(0, 1), probs(0, 1) - 1.0, 1e-12);
  EXPECT_NEAR(g(0, 2), probs(0, 2), 1e-12);
}

}  // namespace
}  // namespace diagnet::nn
