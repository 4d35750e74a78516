// Dense row-major matrix of floats — the numeric workhorse of the library
// and its only matrix type. fp32 is enough everywhere it is used: the
// network's outputs are softmax probabilities and normalised |∂L/∂x|
// saliencies, and the flat models split on feature thresholds. Values enter
// and leave as double (feature vectors, bundle parameters, diagnoses) and
// are narrowed with round-to-nearest on the way in.
// Deliberately minimal: the neural network layers and classic-ML models only
// need 2-D storage, GEMM variants, and elementwise arithmetic.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace diagnet::tensor {

class Matrix {
 public:
  Matrix() = default;
  /// rows x cols, zero-initialised.
  Matrix(std::size_t rows, std::size_t cols);
  /// rows x cols filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, float value);
  /// From nested initializer list (for tests/fixtures). All rows must have
  /// equal width.
  Matrix(std::initializer_list<std::initializer_list<float>> init);

  static Matrix zeros(std::size_t rows, std::size_t cols);
  /// Row vector holding `v` (1 x v.size()), each value rounded to float.
  static Matrix row(const std::vector<double>& v);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c);
  float operator()(std::size_t r, std::size_t c) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const float* row_ptr(std::size_t r) const { return data_.data() + r * cols_; }

  /// Reshape to rows x cols, reusing the existing heap block whenever its
  /// capacity suffices (the steady-state case for training workspaces).
  /// Element contents are unspecified afterwards — callers that need zeros
  /// must fill(0.0) or use resize_zero(). Never shrinks capacity.
  void resize(std::size_t rows, std::size_t cols);
  /// resize() + fill(0.0): a zeroed rows x cols matrix without reallocating
  /// when capacity allows.
  void resize_zero(std::size_t rows, std::size_t cols);
  /// Capacity-aware copy: same result as operator=, but reuses this
  /// matrix's storage instead of allocating when it is already big enough.
  void assign(const Matrix& other);

  /// Set every element to `value`.
  void fill(float value);
  /// Element-wise in-place operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(float scalar);

  /// Copy of row r, widened to double (exact) — how the network's outputs
  /// leave the matrix world.
  std::vector<double> row_copy(std::size_t r) const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace diagnet::tensor
