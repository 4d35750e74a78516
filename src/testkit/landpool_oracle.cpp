#include "testkit/landpool_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "tensor/kernels.h"
#include "testkit/gen.h"
#include "util/require.h"

namespace diagnet::testkit {

namespace oracle {

namespace {

using nn::PoolOp;

float percentile_q(PoolOp op) {
  switch (op) {
    case PoolOp::P10: return 0.1f;
    case PoolOp::P20: return 0.2f;
    case PoolOp::P30: return 0.3f;
    case PoolOp::P40: return 0.4f;
    case PoolOp::P50: return 0.5f;
    case PoolOp::P60: return 0.6f;
    case PoolOp::P70: return 0.7f;
    case PoolOp::P80: return 0.8f;
    case PoolOp::P90: return 0.9f;
    default: return -1.0f;
  }
}

/// Sort available-landmark slots by (value, slot) into `order` (sorted
/// position -> slot) and the values themselves into `sorted`. NaNs sort
/// last, which keeps the comparator a strict weak ordering (std::sort's
/// precondition) even for a numerically hostile row.
void sort_slots(const std::vector<float>& values,
                std::vector<std::size_t>& order, std::vector<float>& sorted) {
  order.resize(values.size());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const float va = values[a], vb = values[b];
    if (va < vb) return true;
    if (vb < va) return false;
    const bool nan_a = std::isnan(va), nan_b = std::isnan(vb);
    return nan_a != nan_b ? nan_b : a < b;
  });
  sorted.resize(values.size());
  for (std::size_t p = 0; p < order.size(); ++p) sorted[p] = values[order[p]];
}

}  // namespace

SortingLandPooling::SortingLandPooling(const tensor::Matrix& kernel,
                                       const tensor::Matrix& bias,
                                       std::vector<nn::PoolOp> ops)
    : kernel_(kernel), bias_(bias), ops_(std::move(ops)) {
  DIAGNET_REQUIRE(bias_.rows() == 1 && bias_.cols() == kernel_.rows());
}

std::vector<float> SortingLandPooling::conv(const tensor::Matrix& land,
                                            const tensor::Matrix& mask) const {
  const std::size_t k = kernel_.cols(), f = kernel_.rows();
  const std::size_t L = land.cols() / k;
  std::vector<float> conv(land.rows() * L * f, 0.0f);
  for (std::size_t i = 0; i < land.rows(); ++i)
    for (std::size_t lam = 0; lam < L; ++lam) {
      if (mask(i, lam) < 0.5) continue;
      const float* x = land.row_ptr(i) + lam * k;
      for (std::size_t j = 0; j < f; ++j) {
        const float* kj = kernel_.row_ptr(j);
        float s = bias_(0, j);
        for (std::size_t t = 0; t < k; ++t) s += kj[t] * x[t];
        conv[(i * L + lam) * f + j] = s;
      }
    }
  return conv;
}

tensor::Matrix SortingLandPooling::forward(const tensor::Matrix& land,
                                           const tensor::Matrix& mask) const {
  const std::size_t f = kernel_.rows();
  const std::size_t L = mask.cols();
  const tensor::detail::Kernels& K = tensor::detail::active_kernels();
  const std::vector<float> conv_values = conv(land, mask);
  std::vector<float> values, sorted;
  std::vector<std::size_t> order;
  tensor::Matrix out(mask.rows(), ops_.size() * f);
  for (std::size_t i = 0; i < mask.rows(); ++i)
    for (std::size_t j = 0; j < f; ++j) {
      values.clear();
      for (std::size_t lam = 0; lam < L; ++lam) {
        if (mask(i, lam) < 0.5) continue;
        values.push_back(conv_values[(i * L + lam) * f + j]);
      }
      const std::size_t n = values.size();
      DIAGNET_REQUIRE_MSG(n > 0, "sample with no available landmark");
      sort_slots(values, order, sorted);
      const float avg = K.reduce_sum(sorted.data(), n) / static_cast<float>(n);
      for (std::size_t o = 0; o < ops_.size(); ++o) {
        float v = 0.0f;
        switch (ops_[o]) {
          case PoolOp::Min:
            v = sorted.front();
            break;
          case PoolOp::Max:
            v = sorted.back();
            break;
          case PoolOp::Avg:
            v = avg;
            break;
          case PoolOp::Var:
            if (n >= 2)
              v = K.reduce_sq_dev(sorted.data(), n, avg) /
                  static_cast<float>(n - 1);
            break;
          default: {
            const float q = percentile_q(ops_[o]);
            const float pos = q * static_cast<float>(n - 1);
            const auto lo = static_cast<std::size_t>(pos);
            const std::size_t hi = std::min(lo + 1, n - 1);
            const float frac = pos - static_cast<float>(lo);
            v = sorted[lo] + frac * (sorted[hi] - sorted[lo]);
            break;
          }
        }
        out(i, o * f + j) = v;
      }
    }
  return out;
}

std::vector<float> SortingLandPooling::route_grads(
    const tensor::Matrix& land, const tensor::Matrix& mask,
    const tensor::Matrix& grad_pooled) const {
  const std::size_t f = kernel_.rows();
  const std::size_t L = mask.cols();
  const tensor::detail::Kernels& K = tensor::detail::active_kernels();
  const std::vector<float> conv_values = conv(land, mask);
  std::vector<float> dconv(conv_values.size(), 0.0f);
  std::vector<float> values, sorted;
  std::vector<std::size_t> order, slot_lam;
  for (std::size_t i = 0; i < mask.rows(); ++i)
    for (std::size_t j = 0; j < f; ++j) {
      values.clear();
      slot_lam.clear();
      for (std::size_t lam = 0; lam < L; ++lam) {
        if (mask(i, lam) < 0.5) continue;
        values.push_back(conv_values[(i * L + lam) * f + j]);
        slot_lam.push_back(lam);
      }
      const std::size_t n = values.size();
      sort_slots(values, order, sorted);
      const float avg = K.reduce_sum(sorted.data(), n) / static_cast<float>(n);
      const auto d_at = [&](std::size_t p) -> float& {
        return dconv[(i * L + slot_lam[order[p]]) * f + j];
      };
      for (std::size_t o = 0; o < ops_.size(); ++o) {
        const float g = grad_pooled(i, o * f + j);
        if (g == 0.0f) continue;
        switch (ops_[o]) {
          case PoolOp::Min:
            d_at(0) += g;
            break;
          case PoolOp::Max:
            d_at(n - 1) += g;
            break;
          case PoolOp::Avg: {
            const float share = g / static_cast<float>(n);
            for (std::size_t p = 0; p < n; ++p) d_at(p) += share;
            break;
          }
          case PoolOp::Var:
            if (n >= 2) {
              const float scale = 2.0f * g / static_cast<float>(n - 1);
              for (std::size_t p = 0; p < n; ++p)
                d_at(p) += scale * (sorted[p] - avg);
            }
            break;
          default: {
            const float q = percentile_q(ops_[o]);
            const float pos = q * static_cast<float>(n - 1);
            const auto lo = static_cast<std::size_t>(pos);
            const std::size_t hi = std::min(lo + 1, n - 1);
            const float frac = pos - static_cast<float>(lo);
            d_at(lo) += g * (1.0f - frac);
            if (hi != lo) d_at(hi) += g * frac;
            break;
          }
        }
      }
    }
  return dconv;
}

void SortingLandPooling::backward_params(const tensor::Matrix& land,
                                         const tensor::Matrix& mask,
                                         const tensor::Matrix& grad_pooled,
                                         tensor::Matrix& kernel_grad,
                                         tensor::Matrix& bias_grad) const {
  const std::size_t k = kernel_.cols(), f = kernel_.rows();
  const std::size_t L = mask.cols();
  const std::vector<float> dconv = route_grads(land, mask, grad_pooled);
  for (std::size_t i = 0; i < mask.rows(); ++i)
    for (std::size_t lam = 0; lam < L; ++lam) {
      if (mask(i, lam) < 0.5) continue;
      const float* x = land.row_ptr(i) + lam * k;
      const float* df = dconv.data() + (i * L + lam) * f;
      for (std::size_t j = 0; j < f; ++j) {
        const float dfj = df[j];
        if (dfj == 0.0f) continue;
        float* kg = kernel_grad.row_ptr(j);
#pragma omp simd
        for (std::size_t t = 0; t < k; ++t) kg[t] += dfj * x[t];
        bias_grad(0, j) += dfj;
      }
    }
}

tensor::Matrix SortingLandPooling::backward_input(
    const tensor::Matrix& land, const tensor::Matrix& mask,
    const tensor::Matrix& grad_pooled) const {
  const std::size_t k = kernel_.cols(), f = kernel_.rows();
  const std::size_t L = mask.cols();
  const std::vector<float> dconv = route_grads(land, mask, grad_pooled);
  tensor::Matrix grad_land(mask.rows(), L * k, 0.0f);
  for (std::size_t i = 0; i < mask.rows(); ++i)
    for (std::size_t lam = 0; lam < L; ++lam) {
      if (mask(i, lam) < 0.5) continue;
      const float* df = dconv.data() + (i * L + lam) * f;
      float* dx = grad_land.row_ptr(i) + lam * k;
      for (std::size_t j = 0; j < f; ++j) {
        const float dfj = df[j];
        if (dfj == 0.0f) continue;
        const float* kv = kernel_.row_ptr(j);
        for (std::size_t t = 0; t < k; ++t) dx[t] += dfj * kv[t];
      }
    }
  return grad_land;
}

}  // namespace oracle

namespace {

/// Equal bits in every element, where two NaNs count as equal whatever
/// their sign and payload: IEEE 754 leaves which NaN an operation on two
/// NaNs returns to the hardware (x86 returns its first operand), and which
/// operand comes first the compiler picks anew for every loop shape.
/// Every other value, ±0 included, must match bit for bit.
bool same_bits(const tensor::Matrix& a, const tensor::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    const float x = a.data()[c], y = b.data()[c];
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::memcmp(&x, &y, sizeof x) != 0) return false;
  }
  return true;
}

/// ±0 with a random sign.
float signed_zero(util::Rng& rng) { return rng.bernoulli(0.5) ? 0.0f : -0.0f; }

/// One random case against the reference, through `pctx`, which the
/// caller reuses across cases of different shapes.
void check_bits_case(CaseContext& ctx, nn::LandPooling::PoolContext& pctx) {
  util::Rng& rng = ctx.rng;
  ctx.begin_case();
  const std::size_t k = gen::dim(rng, 1, 6);
  const std::size_t f = gen::dim(rng, 1, 32);
  const std::size_t L = gen::dim(rng, 1, 40);
  const std::size_t B = gen::dim(rng, 1, 40);

  // The full Table I bank, or a random non-empty subset in random order.
  std::vector<nn::PoolOp> ops = nn::default_pool_ops();
  if (rng.bernoulli(0.25)) {
    const std::vector<std::size_t> pick = rng.sample_without_replacement(
        ops.size(), gen::dim(rng, 1, ops.size()));
    std::vector<nn::PoolOp> subset;
    for (const std::size_t o : pick) subset.push_back(ops[o]);
    ops = std::move(subset);
  }
  util::Rng layer_rng = rng.fork(31);
  nn::LandPooling pool(k, f, ops, layer_rng);
  // Zero biases (either sign) make all-zero landmarks convolve to ±0.
  for (std::size_t j = 0; j < f; ++j) {
    pool.bias().value(0, j) = rng.bernoulli(0.4)
                                  ? signed_zero(rng)
                                  : static_cast<float>(rng.normal());
  }

  tensor::Matrix land = gen::matrix(rng, B, L * k);
  tensor::Matrix mask(B, L, 0.0f);
  const float poison[] = {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(), 3e38f,
                          -3e38f};
  for (std::size_t i = 0; i < B; ++i) {
    // Masks down to a single available landmark.
    for (const std::size_t lam :
         rng.sample_without_replacement(L, gen::dim(rng, 1, L)))
      mask(i, lam) = 1.0f;
    float* row = land.row_ptr(i);
    // Exact ties: duplicated landmark features tie in every filter.
    if (L > 1 && rng.bernoulli(0.5))
      for (std::size_t d = gen::dim(rng, 1, L); d > 0; --d) {
        const auto from = static_cast<std::size_t>(rng.uniform_index(L));
        const auto to = static_cast<std::size_t>(rng.uniform_index(L));
        std::copy(row + from * k, row + from * k + k, row + to * k);
      }
    // All-zero landmarks convolve to the bias, ±0 included.
    if (rng.bernoulli(0.3))
      for (std::size_t d = gen::dim(rng, 1, L); d > 0; --d) {
        const auto lam = static_cast<std::size_t>(rng.uniform_index(L));
        for (std::size_t t = 0; t < k; ++t) row[lam * k + t] = signed_zero(rng);
      }
    // Numerically hostile rows: NaN, ±inf and overflowing features.
    if (rng.bernoulli(0.15))
      for (std::size_t c = 0; c < L * k; ++c)
        if (rng.bernoulli(0.3))
          row[c] = poison[rng.uniform_index(std::size(poison))];
  }
  tensor::Matrix grad = gen::matrix(rng, B, pool.out_features());
  for (std::size_t c = 0; c < grad.size(); ++c)
    if (rng.bernoulli(0.2)) grad.data()[c] = signed_zero(rng);
  const tensor::Matrix kernel_start = gen::matrix(rng, f, k);
  const tensor::Matrix bias_start = gen::matrix(rng, 1, f);

  const oracle::SortingLandPooling ref(pool.kernel().value, pool.bias().value,
                                       ops);
  tensor::Matrix want_kernel = kernel_start, want_bias = bias_start;
  ref.backward_params(land, mask, grad, want_kernel, want_bias);
  const tensor::Matrix want_dx = ref.backward_input(land, mask, grad);

  const std::string tag = " [k=" + std::to_string(k) +
                          " f=" + std::to_string(f) +
                          " L=" + std::to_string(L) +
                          " B=" + std::to_string(B) + "]";
  tensor::Matrix pooled;
  pool.forward(land, mask, pctx, pooled);
  ctx.check(same_bits(pooled, ref.forward(land, mask)),
            "pooled rows must match the sorting reference" + tag);
  // params, input, params, input: each backward after the other kind, and
  // neither may disturb what the forward kept.
  for (int pass = 0; pass < 2; ++pass) {
    const std::string when = pass == 0 ? " (first pass)" : " (second pass)";
    tensor::Matrix kernel_grad = kernel_start, bias_grad = bias_start;
    pool.backward_params(grad, pctx, kernel_grad, bias_grad);
    ctx.check(same_bits(kernel_grad, want_kernel),
              "kernel gradient must match the sorting reference" + when + tag);
    ctx.check(same_bits(bias_grad, want_bias),
              "bias gradient must match the sorting reference" + when + tag);
    tensor::Matrix dx;
    pool.backward_input(grad, pctx, dx);
    ctx.check(same_bits(dx, want_dx),
              "input gradient must match the sorting reference" + when + tag);
  }
}

}  // namespace

void check_landpool_bits(CaseContext& ctx) {
  nn::LandPooling::PoolContext pctx;
  for (int c = 0; c < 3; ++c) check_bits_case(ctx, pctx);
}

}  // namespace diagnet::testkit
