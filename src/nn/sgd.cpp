#include "nn/sgd.h"

#include "util/require.h"

namespace diagnet::nn {

SgdOptimizer::SgdOptimizer(std::vector<Parameter*> params,
                           const SgdConfig& config)
    : params_(std::move(params)), config_(config) {
  DIAGNET_REQUIRE(config_.learning_rate > 0.0);
  DIAGNET_REQUIRE(config_.momentum >= 0.0 && config_.momentum < 1.0);
  velocity_.reserve(params_.size());
  for (const Parameter* p : params_)
    velocity_.emplace_back(p->value.rows(), p->value.cols());
}

void SgdOptimizer::step(std::vector<Matrix>& grads) {
  DIAGNET_REQUIRE(grads.size() == params_.size());
  const auto lr = static_cast<float>(config_.learning_rate);
  const auto mu = static_cast<float>(config_.momentum);
  const auto wd = static_cast<float>(config_.weight_decay);
  for (std::size_t idx = 0; idx < params_.size(); ++idx) {
    Parameter* p = params_[idx];
    Matrix& grad = grads[idx];
    DIAGNET_REQUIRE(grad.same_shape(p->value));
    Matrix& v = velocity_[idx];
    float* vd = v.data();
    float* wdta = p->value.data();
    const float* gd = grad.data();
    const std::size_t n = p->value.size();
    for (std::size_t i = 0; i < n; ++i) {
      const float g = gd[i] + wd * wdta[i];  // decoupled L2 -> coupled form
      vd[i] = mu * vd[i] - lr * g;
      // Nesterov look-ahead: w += mu*v - lr*g; plain momentum: w += v.
      wdta[i] += config_.nesterov ? (mu * vd[i] - lr * g) : vd[i];
    }
    grad.fill(0.0f);
  }
}

}  // namespace diagnet::nn
