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
double percentile_q(PoolOp op) {
  switch (op) {
    case PoolOp::P10: return 0.1;
    case PoolOp::P20: return 0.2;
    case PoolOp::P30: return 0.3;
    case PoolOp::P40: return 0.4;
    case PoolOp::P50: return 0.5;
    case PoolOp::P60: return 0.6;
    case PoolOp::P70: return 0.7;
    case PoolOp::P80: return 0.8;
    case PoolOp::P90: return 0.9;
    default: return -1.0;
  }
}

/// Sort available-landmark slots by (value, slot) — the slot tiebreak makes
/// gradient routing deterministic under ties. NaNs sort last: the order
/// stays a strict weak ordering (std::sort's precondition) even for a
/// numerically hostile row, and is unchanged for every non-NaN value.
void sort_slots(const std::vector<double>& values, std::vector<std::size_t>& order) {
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double va = values[a], vb = values[b];
    if (va < vb) return true;
    if (vb < va) return false;
    const bool nan_a = std::isnan(va), nan_b = std::isnan(vb);
    return nan_a != nan_b ? nan_b : a < b;
  });
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
      kernel_.value(r, c) = rng.uniform(-limit, limit);
}

void LandPooling::compute_conv(const Matrix& land, const Matrix& mask,
                               std::vector<double>& conv) const {
  const std::size_t L = land.cols() / k_;
  conv.assign(land.rows() * L * filters_, 0.0);
  for (std::size_t i = 0; i < land.rows(); ++i) {
    std::size_t avail = 0;
    for (std::size_t lam = 0; lam < L; ++lam) {
      if (mask(i, lam) < 0.5) continue;
      ++avail;
      const double* x = land.row_ptr(i) + lam * k_;
      double* f = conv.data() + (i * L + lam) * filters_;
      for (std::size_t j = 0; j < filters_; ++j) {
        const double* kj = kernel_.value.row_ptr(j);
        // No simd-reduction pragma here: the var pool-op's bias gradient is
        // analytically zero, and its finite-difference test only holds when
        // forward rounding matches the strictly sequential sum.
        double s = bias_.value(0, j);
        for (std::size_t t = 0; t < k_; ++t) s += kj[t] * x[t];
        f[j] = s;
      }
    }
    DIAGNET_REQUIRE_MSG(avail > 0, "sample with no available landmark");
  }
}

void LandPooling::pool_from_conv(const Matrix& mask,
                                 const std::vector<double>& conv, Matrix& out,
                                 std::vector<double>& values,
                                 std::vector<std::size_t>& order) const {
  const std::size_t L = mask.cols();
  const tensor::detail::Kernels& K = tensor::detail::active_kernels();
  out.resize(mask.rows(), out_features());
  for (std::size_t i = 0; i < mask.rows(); ++i) {
    // Pooling across available landmarks, per filter.
    for (std::size_t j = 0; j < filters_; ++j) {
      values.clear();
      order.clear();
      for (std::size_t lam = 0; lam < L; ++lam) {
        if (mask(i, lam) < 0.5) continue;
        values.push_back(conv[(i * L + lam) * filters_ + j]);
        order.push_back(values.size() - 1);
      }
      const std::size_t n = values.size();
      sort_slots(values, order);

      // Dispatched reductions; route_grads recomputes avg the same way so
      // forward and backward agree bit-for-bit on every kernel tier.
      const double avg = K.reduce_sum(values.data(), n) / static_cast<double>(n);

      for (std::size_t o = 0; o < ops_.size(); ++o) {
        double v = 0.0;
        switch (ops_[o]) {
          case PoolOp::Min:
            v = values[order.front()];
            break;
          case PoolOp::Max:
            v = values[order.back()];
            break;
          case PoolOp::Avg:
            v = avg;
            break;
          case PoolOp::Var: {
            if (n >= 2)
              v = K.reduce_sq_dev(values.data(), n, avg) /
                  static_cast<double>(n - 1);
            break;
          }
          default: {
            const double q = percentile_q(ops_[o]);
            const double pos = q * static_cast<double>(n - 1);
            const auto lo = static_cast<std::size_t>(pos);
            const std::size_t hi = std::min(lo + 1, n - 1);
            const double frac = pos - static_cast<double>(lo);
            v = values[order[lo]] +
                frac * (values[order[hi]] - values[order[lo]]);
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
  pool_from_conv(mask, ctx.conv, out, ctx.values, ctx.order);
}

void LandPooling::route_grads(const Matrix& grad_pooled,
                              PoolContext& ctx) const {
  DIAGNET_REQUIRE_MSG(ctx.mask != nullptr && grad_pooled.rows() == ctx.batch &&
                          grad_pooled.cols() == out_features(),
                      "backward shape mismatch (call forward first)");
  const Matrix& mask = *ctx.mask;
  const std::vector<double>& conv = ctx.conv;
  std::vector<double>& dconv = ctx.dconv;
  std::vector<double>& values = ctx.values;
  std::vector<std::size_t>& order = ctx.order;
  std::vector<std::size_t>& slot_lam = ctx.slot_lam;
  const std::size_t L = ctx.landmarks;
  const std::size_t batch = ctx.batch;
  const tensor::detail::Kernels& K = tensor::detail::active_kernels();

  // Route pooled gradients into dF (per sample, landmark, filter).
  dconv.assign(batch * L * filters_, 0.0);
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = 0; j < filters_; ++j) {
      values.clear();
      order.clear();     // sorted positions -> slot
      slot_lam.clear();  // slot -> landmark index
      for (std::size_t lam = 0; lam < L; ++lam) {
        if (mask(i, lam) < 0.5) continue;
        values.push_back(conv[(i * L + lam) * filters_ + j]);
        order.push_back(values.size() - 1);
        slot_lam.push_back(lam);
      }
      const std::size_t n = values.size();
      sort_slots(values, order);

      // Same dispatched reduction as pool_from_conv: the Var rule needs the
      // forward's exact avg.
      const double avg = K.reduce_sum(values.data(), n) / static_cast<double>(n);

      const auto d_at = [&](std::size_t slot) -> double& {
        return dconv[(i * L + slot_lam[slot]) * filters_ + j];
      };

      for (std::size_t o = 0; o < ops_.size(); ++o) {
        const double g = grad_pooled(i, o * filters_ + j);
        if (g == 0.0) continue;
        switch (ops_[o]) {
          case PoolOp::Min:
            d_at(order.front()) += g;
            break;
          case PoolOp::Max:
            d_at(order.back()) += g;
            break;
          case PoolOp::Avg: {
            const double share = g / static_cast<double>(n);
            for (std::size_t s = 0; s < n; ++s) d_at(s) += share;
            break;
          }
          case PoolOp::Var: {
            if (n >= 2) {
              const double scale = 2.0 * g / static_cast<double>(n - 1);
              for (std::size_t s = 0; s < n; ++s)
                d_at(s) += scale * (values[s] - avg);
            }
            break;
          }
          default: {
            const double q = percentile_q(ops_[o]);
            const double pos = q * static_cast<double>(n - 1);
            const auto lo = static_cast<std::size_t>(pos);
            const std::size_t hi = std::min(lo + 1, n - 1);
            const double frac = pos - static_cast<double>(lo);
            d_at(order[lo]) += g * (1.0 - frac);
            if (hi != lo) d_at(order[hi]) += g * frac;
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
      const double* x = land.row_ptr(i) + lam * k_;
      const double* df = ctx.dconv.data() + (i * L + lam) * filters_;
      for (std::size_t j = 0; j < filters_; ++j) {
        const double dfj = df[j];
        if (dfj == 0.0) continue;
        double* kg = kernel_grad.row_ptr(j);
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
      const double* df = ctx.dconv.data() + (i * L + lam) * filters_;
      double* dx = grad_land.row_ptr(i) + lam * k_;
      for (std::size_t j = 0; j < filters_; ++j) {
        const double dfj = df[j];
        if (dfj == 0.0) continue;
        const double* kv = kernel_.value.row_ptr(j);
        for (std::size_t t = 0; t < k_; ++t) dx[t] += dfj * kv[t];
      }
    }
  }
}

bool LandPooling::same_parameters(const LandPooling& other) const {
  if (k_ != other.k_ || filters_ != other.filters_ || ops_ != other.ops_)
    return false;
  const Matrix& ka = kernel_.value;
  const Matrix& kb = other.kernel_.value;
  for (std::size_t r = 0; r < ka.rows(); ++r)
    for (std::size_t c = 0; c < ka.cols(); ++c)
      if (ka(r, c) != kb(r, c)) return false;
  for (std::size_t c = 0; c < bias_.value.cols(); ++c)
    if (bias_.value(0, c) != other.bias_.value(0, c)) return false;
  return true;
}

}  // namespace diagnet::nn
