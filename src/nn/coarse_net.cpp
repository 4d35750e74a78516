#include "nn/coarse_net.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "util/require.h"

namespace diagnet::nn {

namespace {

/// In-place ReLU. Gating backward on the post-activation (x > 0) is exactly
/// equivalent to gating on the pre-activation, so no pre-ReLU copy is kept.
void relu_inplace(Matrix& m) {
  float* p = m.data();
  const std::size_t n = m.size();
  // A select, not a branch: the sign of an activation is a coin flip,
  // and the select vectorises (-0 and NaN pass through).
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) p[i] = p[i] < 0.0f ? 0.0f : p[i];
}

/// Zero grad entries whose post-activation is <= 0 (the ReLU gate).
void relu_gate_inplace(const Matrix& post, Matrix& grad) {
  DIAGNET_REQUIRE(post.same_shape(grad));
  const float* a = post.data();
  float* g = grad.data();
  const std::size_t n = grad.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) g[i] = a[i] <= 0.0f ? 0.0f : g[i];
}

}  // namespace

CoarseNet::CoarseNet(const CoarseNetConfig& config, util::Rng& rng)
    : config_(config),
      pool_(std::make_shared<LandPooling>(config.features_per_landmark,
                                          config.filters, config.pool_ops,
                                          rng)) {
  DIAGNET_REQUIRE(config.classes >= 2);
  local_offset_ = pool_->out_features();
  std::size_t in = pool_->out_features() + config.local_features;
  for (std::size_t h : config.hidden) {
    fc_.push_back(std::make_shared<Linear>(in, h, rng));
    in = h;
  }
  fc_.push_back(std::make_shared<Linear>(in, config.classes, rng));
}

void CoarseNet::init_workspace(CoarseWorkspace& ws) const {
  const auto params = const_cast<CoarseNet*>(this)->parameters();
  ws.param_grads.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i)
    ws.param_grads[i].resize_zero(params[i]->value.rows(),
                                  params[i]->value.cols());
}

const Matrix& CoarseNet::forward(const LandBatch& batch,
                                 CoarseWorkspace& ws) const {
  DIAGNET_REQUIRE(batch.local.rows() == batch.land.rows());
  pool_->forward(batch.land, batch.mask, ws.pool, ws.pooled);
  return forward_fc(ws.pooled, batch.local, ws);
}

const Matrix& CoarseNet::forward_fc(const Matrix& pooled, const Matrix& local,
                                    CoarseWorkspace& ws) const {
  DIAGNET_REQUIRE(pooled.cols() == local_offset_ &&
                  local.cols() == config_.local_features &&
                  pooled.rows() == local.rows());
  const std::size_t hidden = fc_.size() - 1;
  ws.act.resize(hidden);  // no-op once sized

  ws.concat.resize(pooled.rows(), local_offset_ + config_.local_features);
  for (std::size_t r = 0; r < ws.concat.rows(); ++r) {
    float* row = ws.concat.row_ptr(r);
    std::copy(pooled.row_ptr(r), pooled.row_ptr(r) + pooled.cols(), row);
    std::copy(local.row_ptr(r), local.row_ptr(r) + local.cols(),
              row + local_offset_);
  }

  const Matrix* x = &ws.concat;
  for (std::size_t i = 0; i < hidden; ++i) {
    fc_[i]->forward_into(*x, ws.act[i]);
    relu_inplace(ws.act[i]);
    x = &ws.act[i];
  }
  fc_.back()->forward_into(*x, ws.logits);
  return ws.logits;
}

void CoarseNet::backward(const Matrix& grad_logits,
                         CoarseWorkspace& ws) const {
  // ws.param_grads order matches parameters(): the pooling kernel and bias
  // when this net owns them, then (weight, bias) per owned layer.
  const std::size_t first = first_owned();
  const std::size_t base = head_ ? 0 : 2;
  const Matrix* grad = &grad_logits;
  for (std::size_t i = fc_.size(); i-- > first;) {
    const Matrix& in = i == 0 ? ws.concat : ws.act[i - 1];
    // The input gradient only feeds owned layers below this one.
    const bool below = i > first || !head_;
    const std::size_t g = base + 2 * (i - first);
    fc_[i]->backward_into(in, *grad, ws.param_grads[g], ws.param_grads[g + 1],
                          below ? &ws.grad_b : nullptr);
    if (!below) return;
    std::swap(ws.grad_a, ws.grad_b);
    if (i > 0) relu_gate_inplace(ws.act[i - 1], ws.grad_a);
    grad = &ws.grad_a;
  }

  // Split the concat gradient: only the pooled part is needed — the local
  // features are network inputs whose gradient training never uses.
  ws.grad_pooled.resize(ws.grad_a.rows(), local_offset_);
  for (std::size_t r = 0; r < ws.grad_a.rows(); ++r) {
    const float* row = ws.grad_a.row_ptr(r);
    std::copy(row, row + local_offset_, ws.grad_pooled.row_ptr(r));
  }
  pool_->backward_params(ws.grad_pooled, ws.pool, ws.param_grads[0],
                        ws.param_grads[1]);
}

void CoarseNet::backward_inputs(const Matrix& grad_logits,
                                CoarseWorkspace& ws, Matrix* grad_land) const {
  const std::size_t last = fc_.size() - 1;
  fc_[last]->backward_input(grad_logits, ws.grad_a);
  for (std::size_t i = last; i-- > 0;) {
    relu_gate_inplace(ws.act[i], ws.grad_a);
    fc_[i]->backward_input(ws.grad_a, ws.grad_b);
    std::swap(ws.grad_a, ws.grad_b);
  }

  // Split the concat gradient back into (pooled, local) parts.
  const std::size_t rows = ws.grad_a.rows();
  ws.grad_pooled.resize(rows, local_offset_);
  ws.grad_local.resize(rows, config_.local_features);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = ws.grad_a.row_ptr(r);
    std::copy(row, row + local_offset_, ws.grad_pooled.row_ptr(r));
    std::copy(row + local_offset_, row + local_offset_ + config_.local_features,
              ws.grad_local.row_ptr(r));
  }
  if (grad_land) pool_->backward_input(ws.grad_pooled, ws.pool, *grad_land);
}

std::vector<Parameter*> CoarseNet::parameters() {
  std::vector<Parameter*> params;
  if (!head_) params = pool_->parameters();
  for (std::size_t i = first_owned(); i < fc_.size(); ++i)
    for (Parameter* p : fc_[i]->parameters()) params.push_back(p);
  return params;
}

std::vector<Parameter*> CoarseNet::all_parameters() const {
  std::vector<Parameter*> params = pool_->parameters();
  for (const auto& layer : fc_)
    for (Parameter* p : layer->parameters()) params.push_back(p);
  return params;
}

std::size_t CoarseNet::parameter_count() const {
  std::size_t n = 0;
  for (Parameter* p : const_cast<CoarseNet*>(this)->parameters())
    n += p->value.size();
  return n;
}

std::unique_ptr<CoarseNet> CoarseNet::head() const {
  auto net = std::unique_ptr<CoarseNet>(new CoarseNet(*this));  // shares all
  net->head_ = true;
  for (std::size_t i = net->first_owned(); i < fc_.size(); ++i)
    net->fc_[i] = std::make_shared<Linear>(*fc_[i]);
  return net;
}

std::unique_ptr<CoarseNet> CoarseNet::head(
    const std::vector<double>& flat) const {
  auto net = head();
  if (!net->assign(flat)) return nullptr;
  return net;
}

std::vector<double> CoarseNet::save_parameters() const {
  std::vector<double> flat;
  for (Parameter* p : all_parameters()) {
    const float* d = p->value.data();
    flat.insert(flat.end(), d, d + p->value.size());  // widening is exact
  }
  return flat;
}

void CoarseNet::load_parameters(const std::vector<double>& flat) {
  DIAGNET_REQUIRE_MSG(assign(flat),
                      "blob's representation differs from the shared one");
}

bool CoarseNet::assign(const std::vector<double>& flat) {
  const std::vector<Parameter*> params = all_parameters();
  // The shared parameters, if any, lead the list.
  const std::size_t verify = params.size() - parameters().size();
  std::size_t off = 0;
  for (std::size_t k = 0; k < params.size(); ++k) {
    Matrix& value = params[k]->value;
    DIAGNET_REQUIRE_MSG(off + value.size() <= flat.size(),
                        "parameter blob too short");
    for (std::size_t i = 0; i < value.size(); ++i) {
      const double v = flat[off + i];
      // Narrowing a finite double past float's range is undefined.
      DIAGNET_REQUIRE_MSG(!std::isfinite(v) ||
                              std::abs(v) <= std::numeric_limits<float>::max(),
                          "parameter outside the float range");
      const float f = static_cast<float>(v);
      if (k >= verify)
        value.data()[i] = f;
      else if (std::memcmp(&f, value.data() + i, sizeof f) != 0)
        return false;
    }
    off += value.size();
  }
  DIAGNET_REQUIRE_MSG(off == flat.size(), "parameter blob too long");
  return true;
}

}  // namespace diagnet::nn
