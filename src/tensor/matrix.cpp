#include "tensor/matrix.h"

#include "util/require.h"

namespace diagnet::tensor {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, float value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : init) {
    DIAGNET_REQUIRE_MSG(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols);
}

Matrix Matrix::row(const std::vector<double>& v) {
  Matrix m(1, v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    m(0, i) = static_cast<float>(v[i]);
  return m;
}

float& Matrix::operator()(std::size_t r, std::size_t c) {
  DIAGNET_REQUIRE(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

float Matrix::operator()(std::size_t r, std::size_t c) const {
  DIAGNET_REQUIRE(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // vector::resize never releases capacity, so repeated reshapes between
  // the same steady-state shapes allocate only on first growth.
  data_.resize(rows * cols);
}

void Matrix::resize_zero(std::size_t rows, std::size_t cols) {
  resize(rows, cols);
  fill(0.0f);
}

void Matrix::assign(const Matrix& other) {
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_.assign(other.data_.begin(), other.data_.end());
}

void Matrix::fill(float value) {
  for (auto& x : data_) x = value;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  DIAGNET_REQUIRE(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  DIAGNET_REQUIRE(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float scalar) {
  for (auto& x : data_) x *= scalar;
  return *this;
}

std::vector<double> Matrix::row_copy(std::size_t r) const {
  DIAGNET_REQUIRE(r < rows_);
  return std::vector<double>(row_ptr(r), row_ptr(r) + cols_);
}

}  // namespace diagnet::tensor
