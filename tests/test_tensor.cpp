#include <gtest/gtest.h>

#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tests/test_helpers.h"
#include "testkit/oracle.h"

namespace diagnet::tensor {
namespace {

namespace oracle = testkit::oracle;
using test::random_matrix;

/// c agrees with the long-double A·B to within the fp32 error bound of
/// its a.cols()-term reductions (oracle::reduction_tol).
void expect_gemm(const Matrix& c, const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(c.rows() == a.rows() && c.cols() == b.cols());
  EXPECT_LE(oracle::max_scaled_err(
                c, oracle::gemm(a, b),
                oracle::gemm(oracle::abs(a), oracle::abs(b))),
            oracle::reduction_tol(a.cols()));
}

Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  return t;
}

void expect_equal(const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      EXPECT_EQ(a(r, c), b(r, c)) << "at (" << r << ", " << c << ")";
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::logic_error);
}

TEST(Matrix, OutOfBoundsThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m(2, 0), std::logic_error);
  EXPECT_THROW(m(0, 2), std::logic_error);
}

TEST(Matrix, FillValueConstructor) {
  Matrix m(2, 2, 3.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 3.5);
}

TEST(Matrix, RowHelpers) {
  const Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(m.row_copy(1), (std::vector<double>{4.0, 5.0, 6.0}));
  const Matrix r = Matrix::row({7.0, 8.0});
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_DOUBLE_EQ(r(0, 1), 8.0);
}

TEST(Matrix, ElementwiseArithmetic) {
  Matrix a{{1.0, 2.0}};
  const Matrix b{{3.0, 4.0}};
  a += b;
  EXPECT_DOUBLE_EQ(a(0, 1), 6.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(a += b, std::logic_error);
}

struct GemmShape {
  std::size_t m, k, n;
};

class GemmSweep : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmSweep, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 100 + m);
  const Matrix b = random_matrix(k, n, 200 + n);
  Matrix c;
  gemm(a, b, c);
  expect_gemm(c, a, b);
}

TEST_P(GemmSweep, TransposedVariantsMatchExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  // gemm_at_b_acc onto zeros: A stored (k x m), computes A^T B.
  const Matrix a_t = random_matrix(k, m, 300 + m);
  const Matrix b = random_matrix(k, n, 400 + n);
  Matrix c(m, n);
  gemm_at_b_acc(a_t, b, c);
  expect_gemm(c, transpose(a_t), b);

  // gemm_a_bt: B stored (n x k), computes A B^T.
  const Matrix a = random_matrix(m, k, 500 + m);
  const Matrix b_t = random_matrix(n, k, 600 + n);
  Matrix d;
  gemm_a_bt(a, b_t, d);
  expect_gemm(d, a, transpose(b_t));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{2, 3, 4},
                      GemmShape{5, 1, 7}, GemmShape{8, 317, 12},
                      GemmShape{64, 50, 24}, GemmShape{3, 128, 7}));

// Edge shapes: degenerate rows/columns, empty operands, row/column vectors,
// remainders around the 32-row blocks and the 16-column register tiles, and
// one shape big enough to cross the parallel-dispatch threshold. All paths must agree with the
// naive reference.
INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, GemmSweep,
    ::testing::Values(GemmShape{0, 3, 4}, GemmShape{4, 0, 3},
                      GemmShape{3, 4, 0}, GemmShape{1, 1, 5},
                      GemmShape{1, 7, 1}, GemmShape{5, 7, 1},
                      GemmShape{1, 513, 300}, GemmShape{33, 70, 9},
                      GemmShape{34, 65, 31}, GemmShape{96, 512, 96}));

TEST(Ops, GemmAtBAccAccumulatesIntoExistingOutput) {
  const Matrix a_t = random_matrix(6, 4, 21);  // stored (k x m)
  const Matrix b = random_matrix(6, 5, 22);
  Matrix c(4, 5, 1.5);
  gemm_at_b_acc(a_t, b, c);
  // Six products plus the 1.5 start: a 7-term reduction per element.
  const Matrix a = transpose(a_t);
  Matrix expected(4, 5), magnitude(4, 5);
  for (std::size_t r = 0; r < expected.rows(); ++r)
    for (std::size_t col = 0; col < expected.cols(); ++col) {
      long double s = 1.5L, mag = 1.5L;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        s += static_cast<long double>(a(r, k)) * b(k, col);
        mag += std::abs(static_cast<long double>(a(r, k)) * b(k, col));
      }
      expected(r, col) = static_cast<float>(s);
      magnitude(r, col) = static_cast<float>(mag);
    }
  EXPECT_LE(oracle::max_scaled_err(c, expected, magnitude),
            oracle::reduction_tol(a.cols() + 1));
}

TEST(Ops, GemmAtBAccRejectsWrongShape) {
  const Matrix a_t(6, 4);
  const Matrix b(6, 5);
  Matrix c(3, 5);  // wrong rows: acc variant must not silently resize
  EXPECT_THROW(gemm_at_b_acc(a_t, b, c), std::logic_error);
}

TEST(Ops, SumRowsAccAccumulates) {
  const Matrix g{{1.0, 2.0}, {3.0, 4.0}};
  Matrix out(1, 2, 10.0);
  sum_rows_acc(g, out);
  EXPECT_DOUBLE_EQ(out(0, 0), 14.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 16.0);
}

TEST(Matrix, ResizeReusesCapacityAndReshapes) {
  Matrix m(8, 16, 3.0);
  const float* before = m.data();
  m.resize(4, 8);  // shrinking reshape must not reallocate
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 8u);
  EXPECT_EQ(m.data(), before);
  m.resize_zero(8, 16);  // back within original capacity
  EXPECT_EQ(m.data(), before);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      EXPECT_DOUBLE_EQ(m(r, c), 0.0);
}

TEST(Matrix, AssignCopiesShapeAndValues) {
  const Matrix src{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix dst(7, 7, 9.0);
  dst.assign(src);
  ASSERT_TRUE(dst.same_shape(src));
  expect_equal(dst, src);
}

TEST(Ops, GemmReusesOutputBuffer) {
  const Matrix a = random_matrix(3, 4, 1);
  const Matrix b = random_matrix(4, 5, 2);
  Matrix c(3, 5, 99.0);  // stale content must be overwritten
  gemm(a, b, c);
  expect_gemm(c, a, b);
}

TEST(Ops, GemmShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(4, 5);
  Matrix c;
  EXPECT_THROW(gemm(a, b, c), std::logic_error);
}

TEST(Ops, Axpy) {
  const Matrix a{{1.0, 2.0}};
  Matrix c{{10.0, 20.0}};
  axpy(0.5, a, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 10.5);
  EXPECT_DOUBLE_EQ(c(0, 1), 21.0);
}

TEST(Ops, AddRowBiasBroadcasts) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix bias{{10.0, 20.0}};
  add_row_bias(m, bias);
  EXPECT_DOUBLE_EQ(m(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 24.0);
}

}  // namespace
}  // namespace diagnet::tensor
