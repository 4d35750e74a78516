// SGD with Nesterov momentum and L2 weight decay — the optimizer of
// Table I (learning rate 0.05, decay 0.001).
#pragma once

#include <vector>

#include "nn/layer.h"

namespace diagnet::nn {

struct SgdConfig {
  double learning_rate = 0.05;
  double momentum = 0.9;
  double weight_decay = 0.001;
  bool nesterov = true;
};

class SgdOptimizer {
 public:
  /// Binds to a fixed parameter list; velocity buffers are keyed by
  /// position, so the list must not change between steps.
  SgdOptimizer(std::vector<Parameter*> params, const SgdConfig& config);

  /// Apply one update from `grads` — one buffer per bound parameter, same
  /// order and shapes, owned by the caller (the trainer) — then zero them.
  void step(std::vector<Matrix>& grads);

  const SgdConfig& config() const { return config_; }

 private:
  std::vector<Parameter*> params_;
  std::vector<Matrix> velocity_;
  SgdConfig config_;
};

}  // namespace diagnet::nn
