#include "testkit/sgd_oracle.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "tensor/ops.h"
#include "testkit/gen.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace diagnet::testkit {

namespace oracle {

ReferenceStep reference_sgd_step(
    std::vector<std::vector<tensor::Matrix>>& shards,
    std::vector<tensor::Matrix>& weights,
    std::vector<tensor::Matrix>& velocity, const nn::SgdConfig& config,
    double clip_norm, const float* forced_scale) {
  DIAGNET_REQUIRE(!shards.empty());
  const std::size_t params = weights.size();
  DIAGNET_REQUIRE(velocity.size() == params);

  // Reduce: ascending shard order into a zeroed buffer.
  std::vector<tensor::Matrix> grads;
  for (const tensor::Matrix& w : weights)
    grads.emplace_back(w.rows(), w.cols());
  for (std::vector<tensor::Matrix>& shard : shards) {
    DIAGNET_REQUIRE(shard.size() == params);
    for (std::size_t p = 0; p < params; ++p) {
      tensor::axpy(1.0f, shard[p], grads[p]);
      shard[p].fill(0.0f);
    }
  }

  // Clip: one double sum over every squared gradient, in parameter order.
  ReferenceStep out;
  double sq = 0.0;
  for (const tensor::Matrix& grad : grads)
    for (std::size_t i = 0; i < grad.size(); ++i)
      sq += static_cast<double>(grad.data()[i]) * grad.data()[i];
  out.norm = std::sqrt(sq);
  if (clip_norm > 0.0 && out.norm > clip_norm) {
    out.clipped = true;
    out.scale = forced_scale != nullptr
                    ? *forced_scale
                    : static_cast<float>(clip_norm / out.norm);
    for (tensor::Matrix& grad : grads)
      for (std::size_t i = 0; i < grad.size(); ++i)
        grad.data()[i] *= out.scale;
  }

  // Update, element by element.
  const auto lr = static_cast<float>(config.learning_rate);
  const auto mu = static_cast<float>(config.momentum);
  const auto wd = static_cast<float>(config.weight_decay);
  for (std::size_t p = 0; p < params; ++p) {
    float* w = weights[p].data();
    float* v = velocity[p].data();
    const float* gd = grads[p].data();
    for (std::size_t i = 0; i < weights[p].size(); ++i) {
      const float g = gd[i] + wd * w[i];
      v[i] = mu * v[i] - lr * g;
      w[i] += config.nesterov ? (mu * v[i] - lr * g) : v[i];
    }
  }
  return out;
}

}  // namespace oracle

namespace {

bool same_bits(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool all_zero_bits(const tensor::Matrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, m.data() + i, sizeof bits);
    if (bits != 0) return false;
  }
  return true;
}

/// An accumulator entry: mostly N(0, 1), with ±0 and subnormals mixed in.
float accumulator_value(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.15) return rng.bernoulli(0.5) ? 0.0f : -0.0f;
  if (u < 0.25) {
    const float tiny = std::numeric_limits<float>::denorm_min() *
                       static_cast<float>(1 + rng.uniform_index(1u << 20));
    return rng.bernoulli(0.5) ? tiny : -tiny;
  }
  return static_cast<float>(rng.normal());
}

/// A parameter shape whose size is not a multiple of the slice.
std::size_t parameter_size(util::Rng& rng) {
  constexpr std::size_t kSlice = nn::SgdOptimizer::kSliceFloats;
  switch (rng.uniform_index(4)) {
    case 0: return gen::dim(rng, 1, 64);
    case 1: return kSlice + gen::dim(rng, 1, kSlice - 1);
    case 2: return gen::dim(rng, 2, 3) * kSlice + gen::dim(rng, 1, 9);
    default: return gen::dim(rng, 1, 3 * kSlice);
  }
}

void check_step_case(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;
  ctx.begin_case();
  const std::size_t params = gen::dim(rng, 1, 4);
  const std::size_t shard_count = gen::dim(rng, 1, 5);
  nn::SgdConfig config;
  config.learning_rate = rng.uniform(0.001, 0.2);
  config.momentum = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 0.99);
  config.weight_decay = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 0.01);
  config.nesterov = rng.bernoulli(0.7);

  std::vector<nn::Parameter> owned;
  std::vector<tensor::Matrix> want_w, want_v;
  owned.reserve(params);
  for (std::size_t p = 0; p < params; ++p) {
    const std::size_t n = parameter_size(rng);
    // Tall or flat: the slices must not care about the shape.
    const bool tall = rng.bernoulli(0.5);
    owned.emplace_back(gen::matrix(rng, tall ? n : 1, tall ? 1 : n));
    want_w.push_back(owned.back().value);
    want_v.emplace_back(want_w.back().rows(), want_w.back().cols());
  }
  std::vector<std::vector<tensor::Matrix>> got_shards(shard_count);
  for (std::vector<tensor::Matrix>& shard : got_shards)
    for (const tensor::Matrix& w : want_w) {
      tensor::Matrix acc(w.rows(), w.cols());
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc.data()[i] = accumulator_value(rng);
      shard.push_back(std::move(acc));
    }
  std::vector<std::vector<tensor::Matrix>> want_shards = got_shards;

  std::vector<nn::Parameter*> bound;
  for (nn::Parameter& p : owned) bound.push_back(&p);
  nn::SgdOptimizer optimizer(bound, config);

  // Two steps: the second starts from the first's velocity. The clip
  // bound is set from the reference's norm of the same step, well clear of
  // it either way, so fused and reference agree on whether it fires.
  const std::string tag = " [params=" + std::to_string(params) +
                          " shards=" + std::to_string(shard_count) + "]";
  for (int step = 0; step < 2; ++step) {
    if (step == 1)
      for (std::size_t s = 0; s < shard_count; ++s)
        for (std::size_t p = 0; p < params; ++p)
          for (std::size_t i = 0; i < want_w[p].size(); ++i)
            got_shards[s][p].data()[i] = want_shards[s][p].data()[i] =
                accumulator_value(rng);
    std::vector<std::vector<tensor::Matrix>> probe = want_shards;
    std::vector<tensor::Matrix> probe_w = want_w, probe_v = want_v;
    const double norm =
        oracle::reference_sgd_step(probe, probe_w, probe_v, config, 0.0).norm;
    const double clip_choices[] = {0.0, 2.0 * norm + 1.0, 0.5 * norm,
                                   1e-6 * norm};
    const double clip = clip_choices[rng.uniform_index(4)];

    std::vector<std::vector<tensor::Matrix>*> views;
    for (std::vector<tensor::Matrix>& shard : got_shards)
      views.push_back(&shard);
    const bool got_clipped =
        optimizer.step(views, clip, util::ThreadPool::global());
    const std::string when = " (step " + std::to_string(step) + ")" + tag;

    // The reference at its own scale first; when the clip fires, also at
    // the scales one ulp either side, since the fused norm sums in another
    // order. The fused step must equal one of them bit for bit.
    std::vector<tensor::Matrix> ref_w = want_w, ref_v = want_v;
    std::vector<std::vector<tensor::Matrix>> ref_shards = want_shards;
    const oracle::ReferenceStep want =
        oracle::reference_sgd_step(ref_shards, ref_w, ref_v, config, clip);
    ctx.check(got_clipped == want.clipped,
              "clip decision must match the reference" + when);
    const auto fused_equals = [&](const std::vector<tensor::Matrix>& w,
                                  const std::vector<tensor::Matrix>& v) {
      for (std::size_t p = 0; p < params; ++p)
        if (!same_bits(owned[p].value, w[p]) ||
            !same_bits(optimizer.velocity()[p], v[p]))
          return false;
      return true;
    };
    bool matched = fused_equals(ref_w, ref_v);
    if (want.clipped)
      for (const float scale : {std::nextafter(want.scale, 0.0f),
                                std::nextafter(want.scale, 1.0f)}) {
        if (matched) break;
        std::vector<tensor::Matrix> w = want_w, v = want_v;
        std::vector<std::vector<tensor::Matrix>> replay = want_shards;
        oracle::reference_sgd_step(replay, w, v, config, clip, &scale);
        matched = fused_equals(w, v);
      }
    for (std::size_t p = 0; p < params; ++p) {
      const std::string which = " (parameter " + std::to_string(p) + ")";
      if (!matched) {
        ctx.check(same_bits(owned[p].value, ref_w[p]),
                  "weights must match the reference" + which + when);
        ctx.check(same_bits(optimizer.velocity()[p], ref_v[p]),
                  "velocity must match the reference" + which + when);
      }
      for (std::size_t s = 0; s < shard_count; ++s)
        ctx.check(all_zero_bits(got_shards[s][p]),
                  "shard " + std::to_string(s) + " must be zeroed" + which +
                      when);
    }
    ctx.check(matched, "weights and velocities must match the reference" +
                           std::string(want.clipped
                                           ? " at a clip scale within one ulp"
                                           : "") +
                           when);
    // Carry the fused state forward so step 1 starts from equal bits.
    for (std::size_t p = 0; p < params; ++p) {
      want_w[p] = owned[p].value;
      want_v[p] = optimizer.velocity()[p];
    }
  }
}

}  // namespace

void check_sgd_step(CaseContext& ctx) {
  for (int c = 0; c < 3; ++c) check_step_case(ctx);
}

}  // namespace diagnet::testkit
