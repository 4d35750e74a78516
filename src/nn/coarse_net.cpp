#include "nn/coarse_net.h"

#include <algorithm>
#include <utility>

#include "util/require.h"

namespace diagnet::nn {

namespace {

/// In-place ReLU. Gating backward on the post-activation (x > 0) is exactly
/// equivalent to gating on the pre-activation, so no pre-ReLU copy is kept.
void relu_inplace(Matrix& m) {
  double* p = m.data();
  const std::size_t n = m.size();
  for (std::size_t i = 0; i < n; ++i)
    if (p[i] < 0.0) p[i] = 0.0;
}

/// Zero grad entries whose post-activation is <= 0 (the ReLU gate).
void relu_gate_inplace(const Matrix& post, Matrix& grad) {
  DIAGNET_REQUIRE(post.same_shape(grad));
  const double* a = post.data();
  double* g = grad.data();
  const std::size_t n = grad.size();
  for (std::size_t i = 0; i < n; ++i)
    if (a[i] <= 0.0) g[i] = 0.0;
}

}  // namespace

CoarseNet::CoarseNet(const CoarseNetConfig& config, util::Rng& rng)
    : config_(config),
      pool_(config.features_per_landmark, config.filters, config.pool_ops,
            rng) {
  DIAGNET_REQUIRE(config.classes >= 2);
  local_offset_ = pool_.out_features();
  std::size_t in = pool_.out_features() + config.local_features;
  for (std::size_t h : config.hidden) {
    fc_.emplace_back(in, h, rng);
    in = h;
  }
  fc_.emplace_back(in, config.classes, rng);
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
  pool_.forward(batch.land, batch.mask, ws.pool, ws.pooled);
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
    double* row = ws.concat.row_ptr(r);
    std::copy(pooled.row_ptr(r), pooled.row_ptr(r) + pooled.cols(), row);
    std::copy(local.row_ptr(r), local.row_ptr(r) + local.cols(),
              row + local_offset_);
  }

  const Matrix* x = &ws.concat;
  for (std::size_t i = 0; i < hidden; ++i) {
    fc_[i].forward_into(*x, ws.act[i]);
    relu_inplace(ws.act[i]);
    x = &ws.act[i];
  }
  fc_.back().forward_into(*x, ws.logits);
  return ws.logits;
}

void CoarseNet::backward(const Matrix& grad_logits,
                         CoarseWorkspace& ws) const {
  // ws.param_grads order matches parameters(): pooling kernel and bias
  // first, then (weight, bias) per fully-connected layer.
  const auto fc_grad = [&](std::size_t layer) -> std::pair<Matrix&, Matrix&> {
    return {ws.param_grads[2 + 2 * layer], ws.param_grads[3 + 2 * layer]};
  };

  const std::size_t last = fc_.size() - 1;
  const Matrix& last_in = last == 0 ? ws.concat : ws.act.back();
  auto [lw, lb] = fc_grad(last);
  fc_[last].backward_into(last_in, grad_logits, lw, lb, &ws.grad_a);

  for (std::size_t i = last; i-- > 0;) {
    relu_gate_inplace(ws.act[i], ws.grad_a);
    const Matrix& in = i == 0 ? ws.concat : ws.act[i - 1];
    auto [w, b] = fc_grad(i);
    fc_[i].backward_into(in, ws.grad_a, w, b, &ws.grad_b);
    std::swap(ws.grad_a, ws.grad_b);
  }

  // Split the concat gradient: only the pooled part is needed — the local
  // features are network inputs whose gradient training never uses.
  ws.grad_pooled.resize(ws.grad_a.rows(), local_offset_);
  for (std::size_t r = 0; r < ws.grad_a.rows(); ++r) {
    const double* row = ws.grad_a.row_ptr(r);
    std::copy(row, row + local_offset_, ws.grad_pooled.row_ptr(r));
  }
  pool_.backward_params(ws.grad_pooled, ws.pool, ws.param_grads[0],
                        ws.param_grads[1]);
}

void CoarseNet::backward_inputs(const Matrix& grad_logits,
                                CoarseWorkspace& ws, Matrix* grad_land) const {
  const std::size_t last = fc_.size() - 1;
  fc_[last].backward_input(grad_logits, ws.grad_a);
  for (std::size_t i = last; i-- > 0;) {
    relu_gate_inplace(ws.act[i], ws.grad_a);
    fc_[i].backward_input(ws.grad_a, ws.grad_b);
    std::swap(ws.grad_a, ws.grad_b);
  }

  // Split the concat gradient back into (pooled, local) parts.
  const std::size_t rows = ws.grad_a.rows();
  ws.grad_pooled.resize(rows, local_offset_);
  ws.grad_local.resize(rows, config_.local_features);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = ws.grad_a.row_ptr(r);
    std::copy(row, row + local_offset_, ws.grad_pooled.row_ptr(r));
    std::copy(row + local_offset_, row + local_offset_ + config_.local_features,
              ws.grad_local.row_ptr(r));
  }
  if (grad_land) pool_.backward_input(ws.grad_pooled, ws.pool, *grad_land);
}

void CoarseNet::set_quantized(bool on) {
  for (Linear& layer : fc_) layer.set_quantized(on);
}

bool CoarseNet::quantized() const {
  return !fc_.empty() && fc_.front().quantized();
}

bool CoarseNet::shares_pooling_with(const CoarseNet& other) const {
  return local_offset_ == other.local_offset_ &&
         pool_.same_parameters(other.pool_);
}

std::vector<Parameter*> CoarseNet::parameters() {
  std::vector<Parameter*> params = pool_.parameters();
  for (auto& layer : fc_) {
    for (Parameter* p : layer.parameters()) params.push_back(p);
  }
  return params;
}

std::size_t CoarseNet::parameter_count() const {
  std::size_t n = 0;
  for (Parameter* p : const_cast<CoarseNet*>(this)->parameters())
    n += p->value.size();
  return n;
}

std::size_t CoarseNet::trainable_parameter_count() const {
  std::size_t n = 0;
  for (Parameter* p : const_cast<CoarseNet*>(this)->parameters())
    if (!p->frozen) n += p->value.size();
  return n;
}

void CoarseNet::freeze_representation(bool frozen) {
  for (Parameter* p : pool_.parameters()) p->frozen = frozen;
  // Freeze every hidden layer except the last one; the "final
  // fully-connected layers" (last hidden + output) stay trainable.
  DIAGNET_REQUIRE(!fc_.empty());
  const std::size_t keep_from = fc_.size() >= 2 ? fc_.size() - 2 : 0;
  for (std::size_t i = 0; i < keep_from; ++i) {
    for (Parameter* p : fc_[i].parameters()) p->frozen = frozen;
  }
}

std::unique_ptr<CoarseNet> CoarseNet::clone() const {
  return std::unique_ptr<CoarseNet>(new CoarseNet(*this));
}

std::vector<double> CoarseNet::save_parameters() const {
  std::vector<double> flat;
  for (Parameter* p : const_cast<CoarseNet*>(this)->parameters()) {
    const double* d = p->value.data();
    flat.insert(flat.end(), d, d + p->value.size());
  }
  return flat;
}

void CoarseNet::load_parameters(const std::vector<double>& flat) {
  std::size_t off = 0;
  for (Parameter* p : parameters()) {
    DIAGNET_REQUIRE_MSG(off + p->value.size() <= flat.size(),
                        "parameter blob too short");
    double* d = p->value.data();
    for (std::size_t i = 0; i < p->value.size(); ++i) d[i] = flat[off + i];
    off += p->value.size();
  }
  DIAGNET_REQUIRE_MSG(off == flat.size(), "parameter blob too long");
}

}  // namespace diagnet::nn
