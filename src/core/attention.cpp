#include "core/attention.h"

#include <algorithm>
#include <cmath>

#include "nn/softmax.h"
#include "util/require.h"

namespace diagnet::core {

namespace {

/// Normalise γ to sum 1. When the signal is degenerate (saturated softmax
/// gives an all-zero gradient; occlusion may find no probability drop),
/// fall back to a uniform distribution over the *available* features —
/// masked-out landmarks must stay at exactly 0. `row` selects the sample's
/// mask row inside a (possibly multi-row) batch.
void normalize_gamma(std::vector<double>& gamma, const nn::LandBatch& batch,
                     std::size_t row, const data::FeatureSpace& fs,
                     double sum) {
  if (sum > 0.0) {
    for (auto& g : gamma) g /= sum;
    return;
  }
  std::size_t usable = fs.local_count();
  for (std::size_t lam = 0; lam < fs.landmark_count(); ++lam)
    if (batch.mask(row, lam) >= 0.5) usable += fs.metrics_per_landmark();
  const double uniform = 1.0 / static_cast<double>(usable);
  for (std::size_t j = 0; j < gamma.size(); ++j) {
    const bool available =
        !fs.is_landmark_feature(j) ||
        batch.mask(row, fs.landmark_of(j)) >= 0.5;
    gamma[j] = available ? uniform : 0.0;
  }
}

/// Shared γ extraction: map row `r` of the (land, local) input gradients
/// back to the m-dimensional feature space and normalise.
void gamma_from_grads(AttentionResult& result, const nn::Matrix& grad_land,
                      const nn::Matrix& grad_local, std::size_t r,
                      const nn::LandBatch& batch,
                      const data::FeatureSpace& fs) {
  const std::size_t k = fs.metrics_per_landmark();
  result.gamma.assign(fs.total(), 0.0);
  double sum = 0.0;
  for (std::size_t lam = 0; lam < fs.landmark_count(); ++lam) {
    for (std::size_t metric = 0; metric < k; ++metric) {
      const std::size_t j = fs.landmark_feature(
          lam, static_cast<data::Metric>(metric));
      const double g = std::abs(grad_land(r, lam * k + metric));
      result.gamma[j] = g;
      sum += g;
    }
  }
  for (std::size_t t = 0; t < fs.local_count(); ++t) {
    const std::size_t j =
        fs.local_feature(static_cast<data::LocalFeature>(t));
    const double g = std::abs(grad_local(r, t));
    result.gamma[j] = g;
    sum += g;
  }
  normalize_gamma(result.gamma, batch, r, fs, sum);
}

/// dst = the rows of src listed in `rows`, in order.
void gather_rows(const nn::Matrix& src, const std::vector<std::size_t>& rows,
                 nn::Matrix& dst) {
  dst.resize(rows.size(), src.cols());
  for (std::size_t s = 0; s < rows.size(); ++s)
    std::copy(src.row_ptr(rows[s]), src.row_ptr(rows[s]) + src.cols(),
              dst.row_ptr(s));
}

/// Row s of src goes to row rows[s] of dst (the inverse of gather_rows).
void scatter_rows(const nn::Matrix& src, const std::vector<std::size_t>& rows,
                  nn::Matrix& dst) {
  for (std::size_t s = 0; s < rows.size(); ++s)
    std::copy(src.row_ptr(s), src.row_ptr(s) + src.cols(),
              dst.row_ptr(rows[s]));
}

}  // namespace

std::vector<AttentionResult> compute_attention_shared_pooling(
    const std::vector<PooledGroup>& groups, const nn::LandBatch& batch,
    const data::FeatureSpace& fs) {
  const std::size_t n = batch.size();
  std::vector<AttentionResult> results(n);
  if (n == 0 || groups.empty()) return results;

  // One pooling forward over the union batch, through the first head's
  // (shared) LandPooling.
  const nn::LandPooling& pooling = groups.front().net->pooling();
  nn::LandPooling::PoolContext ctx;
  nn::Matrix pooled;
  pooling.forward(batch.land, batch.mask, ctx, pooled);

  nn::CoarseWorkspace ws;  // FC activations; reused across heads
  nn::Matrix sub_pooled, sub_local;
  nn::Matrix grad_pooled(n, pooled.cols()), grad_local(n, batch.local.cols());
  for (const PooledGroup& grp : groups) {
    const nn::CoarseNet& net = *grp.net;
    DIAGNET_REQUIRE_MSG(net.shares_pooling_with(*groups.front().net),
                        "shared-pooling group with divergent pooling");
    const std::size_t m = grp.rows.size();
    if (m == 0) continue;
    for (const std::size_t r : grp.rows) DIAGNET_REQUIRE(r < n);

    gather_rows(pooled, grp.rows, sub_pooled);
    gather_rows(batch.local, grp.rows, sub_local);
    const nn::Matrix& logits = net.forward_fc(sub_pooled, sub_local, ws);
    const nn::Matrix probs = nn::softmax(logits);
    std::vector<std::size_t> argmaxes(m);
    for (std::size_t s = 0; s < m; ++s) {
      AttentionResult& res = results[grp.rows[s]];
      res.coarse_probs = probs.row_copy(s);
      res.coarse_argmax = static_cast<std::size_t>(
          std::max_element(res.coarse_probs.begin(), res.coarse_probs.end()) -
          res.coarse_probs.begin());
      argmaxes[s] = res.coarse_argmax;
    }

    // One input-only backward of the ideal-label loss through this head's
    // FC stack; its gradients land in the union-row positions.
    net.backward_inputs(nn::ideal_label_grads(logits, argmaxes), ws);
    scatter_rows(ws.grad_pooled, grp.rows, grad_pooled);
    scatter_rows(ws.grad_local, grp.rows, grad_local);
  }

  // One pooling backward over the union.
  nn::Matrix grad_land;
  pooling.backward_input(grad_pooled, ctx, grad_land);
  for (std::size_t r = 0; r < n; ++r)
    gamma_from_grads(results[r], grad_land, grad_local, r, batch, fs);
  return results;
}

AttentionResult compute_occlusion_attention(const nn::CoarseNet& net,
                                            const nn::LandBatch& sample,
                                            const data::FeatureSpace& fs) {
  DIAGNET_REQUIRE_MSG(sample.size() == 1, "attention works on one sample");

  AttentionResult result;
  nn::CoarseWorkspace ws;
  result.coarse_probs = nn::softmax(net.forward(sample, ws)).row_copy(0);
  result.coarse_argmax = static_cast<std::size_t>(
      std::max_element(result.coarse_probs.begin(),
                       result.coarse_probs.end()) -
      result.coarse_probs.begin());
  const double base = result.coarse_probs[result.coarse_argmax];

  // Occlude each feature in turn. Normalised features have mean ~0 per
  // metric kind, so 0 is the natural "typical value" baseline.
  const std::size_t k = fs.metrics_per_landmark();
  result.gamma.assign(fs.total(), 0.0);
  double sum = 0.0;
  nn::LandBatch probe = sample;
  const auto drop_for = [&]() {
    const nn::Matrix probs = nn::softmax(net.forward(probe, ws));
    return std::max(0.0, base - probs(0, result.coarse_argmax));
  };
  for (std::size_t lam = 0; lam < fs.landmark_count(); ++lam) {
    if (sample.mask(0, lam) < 0.5) continue;  // unavailable: stays 0
    for (std::size_t metric = 0; metric < k; ++metric) {
      const std::size_t col = lam * k + metric;
      const double saved = probe.land(0, col);
      probe.land(0, col) = 0.0;
      const std::size_t j =
          fs.landmark_feature(lam, static_cast<data::Metric>(metric));
      result.gamma[j] = drop_for();
      sum += result.gamma[j];
      probe.land(0, col) = saved;
    }
  }
  for (std::size_t t = 0; t < fs.local_count(); ++t) {
    const double saved = probe.local(0, t);
    probe.local(0, t) = 0.0;
    const std::size_t j =
        fs.local_feature(static_cast<data::LocalFeature>(t));
    result.gamma[j] = drop_for();
    sum += result.gamma[j];
    probe.local(0, t) = saved;
  }

  normalize_gamma(result.gamma, sample, 0, fs, sum);
  return result;
}

}  // namespace diagnet::core
