// LandPooling (paper §III-C): a non-overlapping convolution with a kernel
// shared across landmarks, followed by a bank of commutative global pooling
// operators applied across landmarks, element-wise per filter.
//
//   F[λ] = K · x[λ] + b            (K ∈ R^{f×k}, b ∈ R^f, per landmark λ)
//   out  = concat_{Ω ∈ ops} Ω_{λ available} F[λ]   ∈ R^{ops·f}
//
// Because every pooling operator is invariant to landmark order and accepts
// any number of arguments, the output dimension is independent of how many
// landmarks were probed — the property that makes DiagNet root-cause
// extensible (new landmarks can be fed to a trained model).
//
// The backward pass is exact for all operators, including the interpolated
// deciles (gradient routed to the two order statistics that define the
// interpolation). Input gradients are produced because the attention step
// differentiates the loss w.r.t. raw features.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layer.h"
#include "util/rng.h"

namespace diagnet::nn {

/// Global pooling operators; the decile entries implement the "p10, ...,
/// p90" row of Table I with linear interpolation between order statistics.
enum class PoolOp {
  Min,
  Max,
  Avg,
  Var,
  P10,
  P20,
  P30,
  P40,
  P50,
  P60,
  P70,
  P80,
  P90,
};

/// Table I's operator set: min, max, avg, variance, p10..p90 (13 ops).
std::vector<PoolOp> default_pool_ops();

const char* pool_op_name(PoolOp op);

class LandPooling {
 public:
  /// Per-thread forward/backward state: everything a backward pass needs
  /// lives here, never on the layer, so any number of threads can run
  /// forward/backward concurrently against one shared (const) LandPooling.
  /// Holds pointers to the caller's land/mask batch, which must outlive
  /// the matching backward call. All buffers are reused capacity-aware.
  struct PoolContext {
    const Matrix* land = nullptr;
    const Matrix* mask = nullptr;
    std::size_t batch = 0;
    std::size_t landmarks = 0;
    std::vector<double> conv;   // (B, L, f) F[λ] values, 0 where unavailable
    std::vector<double> dconv;  // routed pooled gradients, same layout
    // sort/routing scratch
    std::vector<double> values;
    std::vector<std::size_t> order;
    std::vector<std::size_t> slot_lam;
  };

  /// k features per landmark, `filters` convolution filters, and the pooling
  /// operator bank. Kernel gets He-uniform init; bias starts at zero.
  LandPooling(std::size_t k, std::size_t filters, std::vector<PoolOp> ops,
              util::Rng& rng);

  /// True when `other` computes the identical pooling function: same k,
  /// filter count, operator bank, and bit-identical kernel/bias values.
  /// Specialized heads fine-tuned with --freeze-kernel keep this true
  /// against their donor, which is what lets the serving router share one
  /// LandPooling pass across services.
  bool same_parameters(const LandPooling& other) const;

  /// land: (B, L·k) flattened landmark features, landmark-major (features of
  /// landmark λ occupy columns [λ·k, λ·k+k)). Unavailable landmarks may hold
  /// arbitrary values — they are skipped entirely via `mask`.
  /// mask: (B, L), 1.0 = landmark available. Each sample needs ≥1 available.
  /// Writes the pooled (B, ops·f) rows into `out` (capacity-aware resize)
  /// and the state a backward pass needs into `ctx`.
  void forward(const Matrix& land, const Matrix& mask, PoolContext& ctx,
               Matrix& out) const;

  /// Parameter gradients only: dK += Σ dF[λ] ⊗ x[λ] and db += Σ dF[λ]
  /// accumulated into the given (pre-zeroed) buffers. The input gradient is
  /// skipped entirely — training discards it, which saves the K^T·dF pass.
  void backward_params(const Matrix& grad_pooled, PoolContext& ctx,
                       Matrix& kernel_grad, Matrix& bias_grad) const;

  /// Input gradient only: grad_land = dLoss/dland (zeros at masked-out
  /// landmarks), kernel/bias gradients untouched — the gradient-attention
  /// path. Rows are fully independent, so a union batch pooled once and
  /// back-propped once yields, per row, the same bits as pooling each
  /// sub-batch alone — the property the shared-pooling serving path relies
  /// on.
  void backward_input(const Matrix& grad_pooled, PoolContext& ctx,
                      Matrix& grad_land) const;

  std::vector<Parameter*> parameters() { return {&kernel_, &bias_}; }

  std::size_t feature_count() const { return k_; }
  std::size_t filters() const { return filters_; }
  std::size_t out_features() const { return ops_.size() * filters_; }
  const std::vector<PoolOp>& ops() const { return ops_; }

  Parameter& kernel() { return kernel_; }
  Parameter& bias() { return bias_; }

 private:
  /// Convolution stage: F[λ] = K·x[λ] + b for every available landmark,
  /// into `conv` (resized/zeroed here).
  void compute_conv(const Matrix& land, const Matrix& mask,
                    std::vector<double>& conv) const;
  /// Pooling stage: the operator bank over `conv`, into `out`.
  void pool_from_conv(const Matrix& mask, const std::vector<double>& conv,
                      Matrix& out, std::vector<double>& values,
                      std::vector<std::size_t>& order) const;
  /// Stage 1 of both backward passes: route pooled gradients to the
  /// per-(sample, landmark, filter) dF, into ctx.dconv (resized/zeroed).
  void route_grads(const Matrix& grad_pooled, PoolContext& ctx) const;

  std::size_t k_;
  std::size_t filters_;
  std::vector<PoolOp> ops_;
  Parameter kernel_;  // (f x k)
  Parameter bias_;    // (1 x f)
};

}  // namespace diagnet::nn
