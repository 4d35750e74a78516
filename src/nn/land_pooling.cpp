#include "nn/land_pooling.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

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

/// Rank key of a pooled value: a < b under the slot order's comparator
/// (value, then slot; -0 == +0; NaN last) exactly when key(a) < key(b), or
/// the keys tie and a's slot comes first. The comparator is a strict total
/// order on (value, slot), so every correct sort yields the same
/// permutation, and so does counting ranks over these keys.
inline std::int32_t rank_key(float v) {
  const float canonical = v == 0.0f ? 0.0f : v;  // -0 ranks as +0
  std::int32_t bits;
  std::memcpy(&bits, &canonical, sizeof bits);
  // Negative floats order by descending magnitude: flip their low 31 bits.
  const std::int32_t key = bits ^ ((bits >> 31) & 0x7fffffff);
  return std::isnan(v) ? std::numeric_limits<std::int32_t>::max() : key;
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

void LandPooling::forward(const Matrix& land, const Matrix& mask,
                          PoolContext& ctx, Matrix& out) const {
  DIAGNET_REQUIRE_MSG(land.cols() % k_ == 0, "land width must be L*k");
  const std::size_t L = land.cols() / k_;
  const std::size_t B = land.rows();
  const std::size_t f = filters_;
  DIAGNET_REQUIRE(mask.rows() == B && mask.cols() == L);
  DIAGNET_REQUIRE_MSG(L <= std::numeric_limits<std::uint16_t>::max(),
                      "too many landmarks for a 16-bit slot order");
  const tensor::detail::Kernels& K = tensor::detail::active_kernels();

  ctx.land = &land;
  ctx.batch = B;
  ctx.landmarks = L;
  ctx.avail_count.resize(B);
  ctx.avail.resize(B * L);
  ctx.conv.resize(B * L * f);
  ctx.order.resize(B * f * L);
  ctx.avg.resize(B * f);
  ctx.kernel_t.resize(k_ * f);
  ctx.key.resize(L * f);
  ctx.rank.resize(L * f);
  ctx.sorted.resize(f * L);
  for (std::size_t j = 0; j < f; ++j)
    for (std::size_t t = 0; t < k_; ++t)
      ctx.kernel_t[t * f + j] = kernel_.value(j, t);
  const float* bias = bias_.value.row_ptr(0);
  std::int32_t* key = ctx.key.data();
  std::int32_t* rank = ctx.rank.data();
  float* sorted = ctx.sorted.data();
  out.resize(B, out_features());

  for (std::size_t i = 0; i < B; ++i) {
    std::uint16_t* avail = ctx.avail.data() + i * L;
    std::size_t n = 0;
    for (std::size_t lam = 0; lam < L; ++lam)
      if (!(mask(i, lam) < 0.5)) avail[n++] = static_cast<std::uint16_t>(lam);
    DIAGNET_REQUIRE_MSG(n > 0, "sample with no available landmark");
    ctx.avail_count[i] = static_cast<std::uint16_t>(n);

    // Convolution, all filters of a landmark at once: every filter's sum
    // is bias + k_0·x_0 + k_1·x_1 + ..., strictly in that order. No fused
    // or reassociated sum here: the var pool-op's bias gradient is
    // analytically zero, and its finite-difference test only holds when
    // forward rounding matches the strictly sequential sum.
    float* conv = ctx.conv.data() + i * L * f;
    for (std::size_t s = 0; s < n; ++s) {
      const float* x = land.row_ptr(i) + avail[s] * k_;
      float* c = conv + s * f;
      std::copy(bias, bias + f, c);
      for (std::size_t t = 0; t < k_; ++t) {
        const float xt = x[t];
        const float* kt = ctx.kernel_t.data() + t * f;
#pragma omp simd
        for (std::size_t j = 0; j < f; ++j) c[j] += kt[j] * xt;
      }
#pragma omp simd
      for (std::size_t j = 0; j < f; ++j) {
        key[s * f + j] = rank_key(c[j]);
        rank[s * f + j] = 0;
      }
    }

    // Rank all filters together: slot s's rank under filter j counts the
    // slots that come before it. Each pair is compared once, and a tie goes
    // to the lower slot.
    for (std::size_t s = 1; s < n; ++s)
      for (std::size_t r = 0; r < s; ++r) {
        const std::int32_t* kr = key + r * f;
        const std::int32_t* ks = key + s * f;
        std::int32_t* rr = rank + r * f;
        std::int32_t* rs = rank + s * f;
#pragma omp simd
        for (std::size_t j = 0; j < f; ++j) {
          const std::int32_t r_first = kr[j] <= ks[j];
          rs[j] += r_first;
          rr[j] += 1 - r_first;
        }
      }
    std::uint16_t* order = ctx.order.data() + i * f * L;
    for (std::size_t s = 0; s < n; ++s)
      for (std::size_t j = 0; j < f; ++j) {
        const auto p = static_cast<std::size_t>(rank[s * f + j]);
        order[j * L + p] = static_cast<std::uint16_t>(s);
        sorted[j * L + p] = conv[s * f + j];
      }

    // Every reduction runs over the sorted values through the dispatched
    // kernels, and the backward passes reuse this avg, so both agree
    // bit-for-bit on every kernel tier.
    float* avg = ctx.avg.data() + i * f;
    for (std::size_t j = 0; j < f; ++j)
      avg[j] = K.reduce_sum(sorted + j * L, n) / static_cast<float>(n);

    float* o_row = out.row_ptr(i);
    for (std::size_t o = 0; o < ops_.size(); ++o) {
      float* v = o_row + o * f;
      switch (ops_[o]) {
        case PoolOp::Min:
          for (std::size_t j = 0; j < f; ++j) v[j] = sorted[j * L];
          break;
        case PoolOp::Max:
          for (std::size_t j = 0; j < f; ++j) v[j] = sorted[j * L + n - 1];
          break;
        case PoolOp::Avg:
          for (std::size_t j = 0; j < f; ++j) v[j] = avg[j];
          break;
        case PoolOp::Var:
          for (std::size_t j = 0; j < f; ++j)
            v[j] = n >= 2 ? K.reduce_sq_dev(sorted + j * L, n, avg[j]) /
                                static_cast<float>(n - 1)
                          : 0.0f;
          break;
        default: {
          const float q = percentile_q(ops_[o]);
          const float pos = q * static_cast<float>(n - 1);
          const auto lo = static_cast<std::size_t>(pos);
          const std::size_t hi = std::min(lo + 1, n - 1);
          const float frac = pos - static_cast<float>(lo);
          for (std::size_t j = 0; j < f; ++j) {
            const float* sj = sorted + j * L;
            v[j] = sj[lo] + frac * (sj[hi] - sj[lo]);
          }
          break;
        }
      }
    }
  }
}

void LandPooling::route_grads(const Matrix& grad_pooled, PoolContext& ctx,
                              std::size_t i) const {
  const std::size_t L = ctx.landmarks;
  const std::size_t f = filters_;
  const std::size_t n = ctx.avail_count[i];
  const float* conv = ctx.conv.data() + i * L * f;
  const float* avg = ctx.avg.data() + i * f;
  const std::uint16_t* order = ctx.order.data() + i * f * L;
  ctx.dconv.assign(n * f, 0.0f);
  float* dconv = ctx.dconv.data();

  // Operator by operator, so every dF element takes its terms in the
  // operator bank's order. A zero pooled gradient routes nothing.
  for (std::size_t o = 0; o < ops_.size(); ++o) {
    const float* g = grad_pooled.row_ptr(i) + o * f;
    // dF of filter j's value at sorted position p.
    const auto d_at = [&](std::size_t j, std::size_t p) -> float& {
      return dconv[order[j * L + p] * f + j];
    };
    switch (ops_[o]) {
      case PoolOp::Min:
        for (std::size_t j = 0; j < f; ++j)
          if (g[j] != 0.0f) d_at(j, 0) += g[j];
        break;
      case PoolOp::Max:
        for (std::size_t j = 0; j < f; ++j)
          if (g[j] != 0.0f) d_at(j, n - 1) += g[j];
        break;
      case PoolOp::Avg:
        // Every slot takes one equal share, so slot order serves. No zero
        // test: a ±0 gradient's share is ±0, which leaves dF's bits alone
        // (dF starts at +0, and a sum is -0 only when both operands are).
        for (std::size_t s = 0; s < n; ++s) {
          float* d = dconv + s * f;
#pragma omp simd
          for (std::size_t j = 0; j < f; ++j)
            d[j] += g[j] / static_cast<float>(n);
        }
        break;
      case PoolOp::Var:
        if (n < 2) break;
        for (std::size_t j = 0; j < f; ++j) {
          if (g[j] == 0.0f) continue;  // 0·inf would route a NaN
          const float scale = 2.0f * g[j] / static_cast<float>(n - 1);
          for (std::size_t s = 0; s < n; ++s)
            dconv[s * f + j] += scale * (conv[s * f + j] - avg[j]);
        }
        break;
      default: {
        const float q = percentile_q(ops_[o]);
        const float pos = q * static_cast<float>(n - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, n - 1);
        const float frac = pos - static_cast<float>(lo);
        for (std::size_t j = 0; j < f; ++j) {
          if (g[j] == 0.0f) continue;
          d_at(j, lo) += g[j] * (1.0f - frac);
          if (hi != lo) d_at(j, hi) += g[j] * frac;
        }
        break;
      }
    }
  }
}

void LandPooling::backward_params(const Matrix& grad_pooled, PoolContext& ctx,
                                  Matrix& kernel_grad,
                                  Matrix& bias_grad) const {
  DIAGNET_REQUIRE(kernel_grad.same_shape(kernel_.value) &&
                  bias_grad.same_shape(bias_.value));
  DIAGNET_REQUIRE_MSG(ctx.land != nullptr && grad_pooled.rows() == ctx.batch &&
                          grad_pooled.cols() == out_features(),
                      "backward shape mismatch (call forward first)");
  const Matrix& land = *ctx.land;
  const std::size_t L = ctx.landmarks;

  // Parameters only: dK += Σ dF[λ] ⊗ x[λ]; db += Σ dF[λ], landmarks in
  // ascending order. The dx = K^T·dF pass is skipped — the trainer
  // discards it.
  for (std::size_t i = 0; i < ctx.batch; ++i) {
    route_grads(grad_pooled, ctx, i);
    for (std::size_t s = 0; s < ctx.avail_count[i]; ++s) {
      const float* x = land.row_ptr(i) + ctx.avail[i * L + s] * k_;
      const float* df = ctx.dconv.data() + s * filters_;
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
  DIAGNET_REQUIRE_MSG(ctx.land != nullptr && grad_pooled.rows() == ctx.batch &&
                          grad_pooled.cols() == out_features(),
                      "backward shape mismatch (call forward first)");
  const std::size_t L = ctx.landmarks;

  // Input only: dx[λ] = K^T · dF[λ]; kernel/bias gradients are not
  // accumulated.
  grad_land.resize_zero(ctx.batch, L * k_);
  for (std::size_t i = 0; i < ctx.batch; ++i) {
    route_grads(grad_pooled, ctx, i);
    for (std::size_t s = 0; s < ctx.avail_count[i]; ++s) {
      const float* df = ctx.dconv.data() + s * filters_;
      float* dx = grad_land.row_ptr(i) + ctx.avail[i * L + s] * k_;
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
