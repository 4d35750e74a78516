#include "testkit/oracle.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace diagnet::testkit::oracle {

Matrix gemm(const Matrix& a, const Matrix& b) {
  DIAGNET_REQUIRE(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      long double s = 0.0L;
      for (std::size_t k = 0; k < a.cols(); ++k)
        s += static_cast<long double>(a(i, k)) * b(k, j);
      c(i, j) = static_cast<float>(s);
    }
  return c;
}

Matrix gemm_at_b(const Matrix& a, const Matrix& b) {
  DIAGNET_REQUIRE(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      long double s = 0.0L;
      for (std::size_t k = 0; k < a.rows(); ++k)
        s += static_cast<long double>(a(k, i)) * b(k, j);
      c(i, j) = static_cast<float>(s);
    }
  return c;
}

Matrix gemm_a_bt(const Matrix& a, const Matrix& b) {
  DIAGNET_REQUIRE(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.rows(); ++j) {
      long double s = 0.0L;
      for (std::size_t k = 0; k < a.cols(); ++k)
        s += static_cast<long double>(a(i, k)) * b(j, k);
      c(i, j) = static_cast<float>(s);
    }
  return c;
}

namespace {

/// Long-double softmax of one row of logits.
std::vector<long double> softmax_row(const std::vector<long double>& x) {
  const long double mx = *std::max_element(x.begin(), x.end());
  long double sum = 0.0L;
  for (const long double v : x) sum += std::exp(v - mx);
  std::vector<long double> p(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) p[j] = std::exp(x[j] - mx) / sum;
  return p;
}

std::vector<long double> row_of(const Matrix& m, std::size_t r) {
  return std::vector<long double>(m.row_ptr(r), m.row_ptr(r) + m.cols());
}

}  // namespace

Matrix softmax(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const std::vector<long double> p = softmax_row(row_of(logits, i));
    for (std::size_t j = 0; j < logits.cols(); ++j)
      out(i, j) = static_cast<float>(p[j]);
  }
  return out;
}

double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::size_t>& labels,
                             Matrix* grad) {
  DIAGNET_REQUIRE(labels.size() == logits.rows());
  const std::size_t batch = logits.rows();
  long double loss = 0.0L;
  if (grad != nullptr) grad->resize(logits.rows(), logits.cols());
  for (std::size_t i = 0; i < batch; ++i) {
    DIAGNET_REQUIRE(labels[i] < logits.cols());
    const std::vector<long double> p = softmax_row(row_of(logits, i));
    loss += -std::log(p[labels[i]]);
    if (grad != nullptr)
      for (std::size_t j = 0; j < logits.cols(); ++j)
        (*grad)(i, j) = static_cast<float>(
            (p[j] - (labels[i] == j ? 1.0L : 0.0L)) /
            static_cast<long double>(batch));
  }
  return static_cast<double>(loss / static_cast<long double>(batch));
}

namespace {

/// q-quantile of a sorted vector with linear interpolation — the Table I
/// decile definition, restated independently of the production layer.
long double quantile(const std::vector<long double>& sorted, long double q) {
  const std::size_t n = sorted.size();
  const long double pos = q * static_cast<long double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const long double frac = pos - static_cast<long double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

long double pool_value(nn::PoolOp op, const std::vector<long double>& sorted) {
  const std::size_t n = sorted.size();
  long double sum = 0.0L;
  for (const long double v : sorted) sum += v;
  const long double avg = sum / static_cast<long double>(n);
  switch (op) {
    case nn::PoolOp::Min: return sorted.front();
    case nn::PoolOp::Max: return sorted.back();
    case nn::PoolOp::Avg: return avg;
    case nn::PoolOp::Var: {
      if (n < 2) return 0.0L;
      long double m2 = 0.0L;
      for (const long double v : sorted) m2 += (v - avg) * (v - avg);
      return m2 / static_cast<long double>(n - 1);
    }
    // The production layer holds each decile fraction as a float.
    case nn::PoolOp::P10: return quantile(sorted, 0.1f);
    case nn::PoolOp::P20: return quantile(sorted, 0.2f);
    case nn::PoolOp::P30: return quantile(sorted, 0.3f);
    case nn::PoolOp::P40: return quantile(sorted, 0.4f);
    case nn::PoolOp::P50: return quantile(sorted, 0.5f);
    case nn::PoolOp::P60: return quantile(sorted, 0.6f);
    case nn::PoolOp::P70: return quantile(sorted, 0.7f);
    case nn::PoolOp::P80: return quantile(sorted, 0.8f);
    case nn::PoolOp::P90: return quantile(sorted, 0.9f);
  }
  return 0.0L;
}

/// LandPooling forward of one row in long double: out[o * f + j].
std::vector<long double> pool_row(const Matrix& kernel, const Matrix& bias,
                                  const std::vector<nn::PoolOp>& ops,
                                  const Matrix& land, const Matrix& mask,
                                  std::size_t i) {
  const std::size_t f = kernel.rows();
  const std::size_t k = kernel.cols();
  DIAGNET_REQUIRE(land.cols() % k == 0);
  const std::size_t landmarks = land.cols() / k;
  DIAGNET_REQUIRE(mask.rows() == land.rows() && mask.cols() == landmarks);
  std::vector<long double> out(ops.size() * f);
  for (std::size_t j = 0; j < f; ++j) {
    std::vector<long double> values;
    for (std::size_t lam = 0; lam < landmarks; ++lam) {
      if (mask(i, lam) < 0.5f) continue;
      long double s = bias(0, j);
      for (std::size_t t = 0; t < k; ++t)
        s += static_cast<long double>(kernel(j, t)) * land(i, lam * k + t);
      values.push_back(s);
    }
    DIAGNET_REQUIRE_MSG(!values.empty(), "sample with no available landmark");
    std::sort(values.begin(), values.end());
    for (std::size_t o = 0; o < ops.size(); ++o)
      out[o * f + j] = pool_value(ops[o], values);
  }
  return out;
}

}  // namespace

Matrix land_pooling(const Matrix& kernel, const Matrix& bias,
                    const std::vector<nn::PoolOp>& ops, const Matrix& land,
                    const Matrix& mask) {
  Matrix out(land.rows(), ops.size() * kernel.rows());
  for (std::size_t i = 0; i < land.rows(); ++i) {
    const std::vector<long double> row =
        pool_row(kernel, bias, ops, land, mask, i);
    for (std::size_t c = 0; c < row.size(); ++c)
      out(i, c) = static_cast<float>(row[c]);
  }
  return out;
}

double pooled_dot(const Matrix& kernel, const Matrix& bias,
                  const std::vector<nn::PoolOp>& ops, const Matrix& land,
                  const Matrix& mask, const Matrix& weights) {
  long double total = 0.0L;
  for (std::size_t i = 0; i < land.rows(); ++i) {
    const std::vector<long double> row =
        pool_row(kernel, bias, ops, land, mask, i);
    DIAGNET_REQUIRE(weights.cols() == row.size());
    for (std::size_t c = 0; c < row.size(); ++c) total += weights(i, c) * row[c];
  }
  return static_cast<double>(total);
}

double coarse_net_loss(nn::CoarseNet& net, const nn::LandBatch& batch,
                       const std::vector<std::size_t>& labels) {
  DIAGNET_REQUIRE(labels.size() == batch.size());
  const std::vector<nn::Parameter*> params = net.parameters();
  nn::LandPooling& pool = net.pooling();
  const std::size_t layers = (params.size() - 2) / 2;
  long double loss = 0.0L;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::vector<long double> x = pool_row(pool.kernel().value,
                                          pool.bias().value, pool.ops(),
                                          batch.land, batch.mask, i);
    for (std::size_t t = 0; t < batch.local.cols(); ++t)
      x.push_back(batch.local(i, t));
    for (std::size_t l = 0; l < layers; ++l) {
      const Matrix& w = params[2 + 2 * l]->value;
      const Matrix& b = params[3 + 2 * l]->value;
      DIAGNET_REQUIRE(w.rows() == x.size());
      std::vector<long double> y(w.cols());
      for (std::size_t c = 0; c < w.cols(); ++c) {
        long double s = b(0, c);
        for (std::size_t r = 0; r < w.rows(); ++r) s += x[r] * w(r, c);
        y[c] = l + 1 < layers ? std::max(s, 0.0L) : s;
      }
      x = std::move(y);
    }
    DIAGNET_REQUIRE(labels[i] < x.size());
    loss += -std::log(softmax_row(x)[labels[i]]);
  }
  return static_cast<double>(loss / static_cast<long double>(batch.size()));
}

double central_difference(const std::function<double()>& f, float& x,
                          float h) {
  const float saved = x;
  const float step = h * std::max(1.0f, std::abs(saved));
  const float up = saved + step, down = saved - step;
  x = up;
  const double fp = f();
  x = down;
  const double fm = f();
  x = saved;
  return (fp - fm) / (static_cast<double>(up) - down);
}

double grad_error(double got, double want) {
  return std::abs(got - want) / std::max({std::abs(got), std::abs(want), 1.0});
}

double max_scaled_err(const Matrix& got, const Matrix& want,
                      const Matrix& magnitude) {
  DIAGNET_REQUIRE(got.same_shape(want) && got.same_shape(magnitude));
  double worst = 0.0;
  for (std::size_t r = 0; r < got.rows(); ++r)
    for (std::size_t c = 0; c < got.cols(); ++c) {
      const double err = std::abs(static_cast<double>(got(r, c)) - want(r, c));
      const double mag = std::max<double>(magnitude(r, c), FLT_MIN);
      worst = std::max(worst, err / mag);
    }
  return worst;
}

Matrix abs(const Matrix& m) {
  Matrix out = m;
  for (std::size_t r = 0; r < out.rows(); ++r)
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) = std::abs(m(r, c));
  return out;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  DIAGNET_REQUIRE(a.same_shape(b));
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      worst = std::max(
          worst, std::abs(static_cast<double>(a(r, c)) - b(r, c)));
  return worst;
}

double max_rel_diff(const Matrix& a, const Matrix& b) {
  DIAGNET_REQUIRE(a.same_shape(b));
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const double x = a(r, c), y = b(r, c);
      const double denom = std::max({std::abs(x), std::abs(y), 1.0});
      worst = std::max(worst, std::abs(x - y) / denom);
    }
  return worst;
}

}  // namespace diagnet::testkit::oracle
