#include "nn/land_pooling.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "util/require.h"

namespace diagnet::nn {

std::vector<PoolOp> default_pool_ops() {
  return {PoolOp::Min, PoolOp::Max, PoolOp::Avg, PoolOp::Var,
          PoolOp::P10, PoolOp::P20, PoolOp::P30, PoolOp::P40, PoolOp::P50,
          PoolOp::P60, PoolOp::P70, PoolOp::P80, PoolOp::P90};
}

const char* pool_op_name(PoolOp op) {
  switch (op) {
    case PoolOp::Min: return "min";
    case PoolOp::Max: return "max";
    case PoolOp::Avg: return "avg";
    case PoolOp::Var: return "var";
    case PoolOp::P10: return "p10";
    case PoolOp::P20: return "p20";
    case PoolOp::P30: return "p30";
    case PoolOp::P40: return "p40";
    case PoolOp::P50: return "p50";
    case PoolOp::P60: return "p60";
    case PoolOp::P70: return "p70";
    case PoolOp::P80: return "p80";
    case PoolOp::P90: return "p90";
  }
  return "?";
}

namespace {

/// Decile fraction for percentile operators; -1 for non-percentile ops.
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
/// position -> slot) and the values themselves into `sorted`. The slot
/// tiebreak makes gradient routing deterministic under ties, and every
/// pooling reduction runs over `sorted`, so pooled rows are bit-identical
/// under any numbering of the landmarks. NaNs sort last: the order stays a
/// strict weak ordering (std::sort's precondition) even for a numerically
/// hostile row, and is unchanged for every non-NaN value.
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

LandPooling::LandPooling(std::size_t k, std::size_t filters,
                         std::vector<PoolOp> ops, util::Rng& rng)
    : k_(k),
      filters_(filters),
      ops_(std::move(ops)),
      kernel_(Matrix(filters, k)),
      bias_(Matrix(1, filters)) {
  DIAGNET_REQUIRE(k_ > 0 && filters_ > 0 && !ops_.empty());
  const double limit = std::sqrt(6.0 / static_cast<double>(k_));
  for (std::size_t r = 0; r < filters_; ++r)
    for (std::size_t c = 0; c < k_; ++c)
      kernel_.value(r, c) = static_cast<float>(rng.uniform(-limit, limit));
}

void LandPooling::compute_conv(const Matrix& land, const Matrix& mask,
                               std::vector<float>& conv) const {
  const std::size_t L = land.cols() / k_;
  conv.assign(land.rows() * L * filters_, 0.0f);
  for (std::size_t i = 0; i < land.rows(); ++i) {
    std::size_t avail = 0;
    for (std::size_t lam = 0; lam < L; ++lam) {
      if (mask(i, lam) < 0.5) continue;
      ++avail;
      const float* x = land.row_ptr(i) + lam * k_;
      float* f = conv.data() + (i * L + lam) * filters_;
      for (std::size_t j = 0; j < filters_; ++j) {
        const float* kj = kernel_.value.row_ptr(j);
        // No simd-reduction pragma here: the var pool-op's bias gradient is
        // analytically zero, and its finite-difference test only holds when
        // forward rounding matches the strictly sequential sum.
        float s = bias_.value(0, j);
        for (std::size_t t = 0; t < k_; ++t) s += kj[t] * x[t];
        f[j] = s;
      }
    }
    DIAGNET_REQUIRE_MSG(avail > 0, "sample with no available landmark");
  }
}

void LandPooling::pool_from_conv(const Matrix& mask, PoolContext& ctx,
                                 Matrix& out) const {
  const std::size_t L = mask.cols();
  const tensor::detail::Kernels& K = tensor::detail::active_kernels();
  std::vector<float>& values = ctx.values;
  const std::vector<float>& sorted = ctx.sorted;
  out.resize(mask.rows(), out_features());
  for (std::size_t i = 0; i < mask.rows(); ++i) {
    // Pooling across available landmarks, per filter.
    for (std::size_t j = 0; j < filters_; ++j) {
      values.clear();
      for (std::size_t lam = 0; lam < L; ++lam) {
        if (mask(i, lam) < 0.5) continue;
        values.push_back(ctx.conv[(i * L + lam) * filters_ + j]);
      }
      const std::size_t n = values.size();
      sort_slots(values, ctx.order, ctx.sorted);

      // Dispatched reductions; route_grads recomputes avg the same way so
      // forward and backward agree bit-for-bit on every kernel tier.
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
          case PoolOp::Var: {
            if (n >= 2)
              v = K.reduce_sq_dev(sorted.data(), n, avg) /
                  static_cast<float>(n - 1);
            break;
          }
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
        out(i, o * filters_ + j) = v;
      }
    }
  }
}

void LandPooling::forward(const Matrix& land, const Matrix& mask,
                          PoolContext& ctx, Matrix& out) const {
  DIAGNET_REQUIRE_MSG(land.cols() % k_ == 0, "land width must be L*k");
  const std::size_t L = land.cols() / k_;
  DIAGNET_REQUIRE(mask.rows() == land.rows() && mask.cols() == L);

  ctx.land = &land;
  ctx.mask = &mask;
  ctx.batch = land.rows();
  ctx.landmarks = L;
  compute_conv(land, mask, ctx.conv);
  pool_from_conv(mask, ctx, out);
}

void LandPooling::route_grads(const Matrix& grad_pooled,
                              PoolContext& ctx) const {
  DIAGNET_REQUIRE_MSG(ctx.mask != nullptr && grad_pooled.rows() == ctx.batch &&
                          grad_pooled.cols() == out_features(),
                      "backward shape mismatch (call forward first)");
  const Matrix& mask = *ctx.mask;
  const std::vector<float>& conv = ctx.conv;
  std::vector<float>& dconv = ctx.dconv;
  std::vector<float>& values = ctx.values;
  const std::vector<float>& sorted = ctx.sorted;
  const std::vector<std::size_t>& order = ctx.order;
  std::vector<std::size_t>& slot_lam = ctx.slot_lam;
  const std::size_t L = ctx.landmarks;
  const std::size_t batch = ctx.batch;
  const tensor::detail::Kernels& K = tensor::detail::active_kernels();

  // Route pooled gradients into dF (per sample, landmark, filter).
  dconv.assign(batch * L * filters_, 0.0f);
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = 0; j < filters_; ++j) {
      values.clear();
      slot_lam.clear();  // slot -> landmark index
      for (std::size_t lam = 0; lam < L; ++lam) {
        if (mask(i, lam) < 0.5) continue;
        values.push_back(conv[(i * L + lam) * filters_ + j]);
        slot_lam.push_back(lam);
      }
      const std::size_t n = values.size();
      sort_slots(values, ctx.order, ctx.sorted);

      // Same dispatched reduction as pool_from_conv: the Var rule needs the
      // forward's exact avg.
      const float avg = K.reduce_sum(sorted.data(), n) / static_cast<float>(n);

      // dF of the value at sorted position p.
      const auto d_at = [&](std::size_t p) -> float& {
        return dconv[(i * L + slot_lam[order[p]]) * filters_ + j];
      };

      for (std::size_t o = 0; o < ops_.size(); ++o) {
        const float g = grad_pooled(i, o * filters_ + j);
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
          case PoolOp::Var: {
            if (n >= 2) {
              const float scale = 2.0f * g / static_cast<float>(n - 1);
              for (std::size_t p = 0; p < n; ++p)
                d_at(p) += scale * (sorted[p] - avg);
            }
            break;
          }
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
  }
}

void LandPooling::backward_params(const Matrix& grad_pooled, PoolContext& ctx,
                                  Matrix& kernel_grad,
                                  Matrix& bias_grad) const {
  DIAGNET_REQUIRE(kernel_grad.same_shape(kernel_.value) &&
                  bias_grad.same_shape(bias_.value));
  route_grads(grad_pooled, ctx);
  const Matrix& land = *ctx.land;
  const Matrix& mask = *ctx.mask;
  const std::size_t L = ctx.landmarks;

  // Stage 2, parameters only: dK += Σ dF[λ] ⊗ x[λ]; db += Σ dF[λ]. The
  // dx = K^T·dF pass is skipped — the trainer discards it.
  for (std::size_t i = 0; i < ctx.batch; ++i) {
    for (std::size_t lam = 0; lam < L; ++lam) {
      if (mask(i, lam) < 0.5) continue;
      const float* x = land.row_ptr(i) + lam * k_;
      const float* df = ctx.dconv.data() + (i * L + lam) * filters_;
      for (std::size_t j = 0; j < filters_; ++j) {
        const float dfj = df[j];
        if (dfj == 0.0f) continue;
        float* kg = kernel_grad.row_ptr(j);
#pragma omp simd
        for (std::size_t t = 0; t < k_; ++t) kg[t] += dfj * x[t];
        bias_grad(0, j) += dfj;
      }
    }
  }
}

void LandPooling::backward_input(const Matrix& grad_pooled, PoolContext& ctx,
                                 Matrix& grad_land) const {
  route_grads(grad_pooled, ctx);
  const Matrix& mask = *ctx.mask;
  const std::size_t L = ctx.landmarks;

  // Stage 2, input only: dx[λ] = K^T · dF[λ]; kernel/bias gradients are
  // not accumulated.
  grad_land.resize_zero(ctx.batch, L * k_);
  for (std::size_t i = 0; i < ctx.batch; ++i) {
    for (std::size_t lam = 0; lam < L; ++lam) {
      if (mask(i, lam) < 0.5) continue;
      const float* df = ctx.dconv.data() + (i * L + lam) * filters_;
      float* dx = grad_land.row_ptr(i) + lam * k_;
      for (std::size_t j = 0; j < filters_; ++j) {
        const float dfj = df[j];
        if (dfj == 0.0f) continue;
        const float* kv = kernel_.value.row_ptr(j);
        for (std::size_t t = 0; t < k_; ++t) dx[t] += dfj * kv[t];
      }
    }
  }
}

}  // namespace diagnet::nn
