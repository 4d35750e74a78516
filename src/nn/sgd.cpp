#include "nn/sgd.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace diagnet::nn {

namespace {

/// acc += src, then src = 0: one shard's slice folded into shard 0's.
void add_and_zero(float* __restrict acc, float* __restrict src,
                  std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] += src[i];
    src[i] = 0.0f;
  }
}

/// Σ acc[i]² in double.
double sum_squares(const float* acc, std::size_t n) {
  double sq = 0.0;
#pragma omp simd reduction(+ : sq)
  for (std::size_t i = 0; i < n; ++i)
    sq += static_cast<double>(acc[i]) * acc[i];
  return sq;
}

/// The momentum update of n weights from the gradient scaled by `scale`,
/// which is then zeroed. The L2 decay joins the gradient (g + wd·w);
/// Nesterov looks ahead (w += mu·v − lr·g), plain momentum does not
/// (w += v).
/// A template parameter rather than a flag: a branch inside the loop
/// keeps GCC from vectorising it.
template <bool kNesterov>
void update_slice(float* __restrict w, float* __restrict v,
                  float* __restrict g, std::size_t n, float scale, float lr,
                  float mu, float wd) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const float gi = g[i] * scale + wd * w[i];
    const float vi = mu * v[i] - lr * gi;
    v[i] = vi;
    w[i] += kNesterov ? mu * vi - lr * gi : vi;
    g[i] = 0.0f;
  }
}

}  // namespace

SgdOptimizer::SgdOptimizer(std::vector<Parameter*> params,
                           const SgdConfig& config)
    : params_(std::move(params)), config_(config) {
  DIAGNET_REQUIRE(config_.learning_rate > 0.0);
  DIAGNET_REQUIRE(config_.momentum >= 0.0 && config_.momentum < 1.0);
  velocity_.reserve(params_.size());
  for (std::size_t p = 0; p < params_.size(); ++p) {
    const Matrix& value = params_[p]->value;
    velocity_.emplace_back(value.rows(), value.cols());
    for (std::size_t begin = 0; begin < value.size(); begin += kSliceFloats)
      slices_.push_back(
          {p, begin, std::min(value.size(), begin + kSliceFloats)});
  }
  slice_sq_.resize(slices_.size());
}

bool SgdOptimizer::step(std::span<std::vector<Matrix>* const> shards,
                        double clip_norm, util::ThreadPool& pool) {
  DIAGNET_REQUIRE(!shards.empty());
  for (const std::vector<Matrix>* shard : shards) {
    DIAGNET_REQUIRE(shard->size() == params_.size());
    for (std::size_t p = 0; p < params_.size(); ++p)
      DIAGNET_REQUIRE((*shard)[p].same_shape(params_[p]->value));
  }
  std::vector<Matrix>& grads = *shards[0];

  double norm = 0.0;
  {
    DIAGNET_SPAN("trainer.step.reduce");
    pool.parallel_for(slices_.size(), [&](std::size_t k) {
      const Slice& slice = slices_[k];
      const std::size_t n = slice.end - slice.begin;
      float* acc = grads[slice.param].data() + slice.begin;
      // 0.0f + shards[0]: what adding it to a zeroed buffer computes.
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) acc[i] += 0.0f;
      for (std::size_t s = 1; s < shards.size(); ++s)
        add_and_zero(acc, (*shards[s])[slice.param].data() + slice.begin, n);
      slice_sq_[k] = sum_squares(acc, n);
    });
    double sq = 0.0;
    for (double s : slice_sq_) sq += s;
    norm = std::sqrt(sq);
  }
  // !(norm > clip) also skips a NaN norm: there is nothing to rescue.
  const bool clipped = clip_norm > 0.0 && norm > clip_norm;
  const float scale = clipped ? static_cast<float>(clip_norm / norm) : 1.0f;

  DIAGNET_SPAN("trainer.step.optimizer");
  const auto lr = static_cast<float>(config_.learning_rate);
  const auto mu = static_cast<float>(config_.momentum);
  const auto wd = static_cast<float>(config_.weight_decay);
  pool.parallel_for(slices_.size(), [&](std::size_t k) {
    const Slice& slice = slices_[k];
    float* w = params_[slice.param]->value.data() + slice.begin;
    float* v = velocity_[slice.param].data() + slice.begin;
    float* g = grads[slice.param].data() + slice.begin;
    const std::size_t n = slice.end - slice.begin;
    if (config_.nesterov)
      update_slice<true>(w, v, g, n, scale, lr, mu, wd);
    else
      update_slice<false>(w, v, g, n, scale, lr, mu, wd);
  });
  return clipped;
}

}  // namespace diagnet::nn
