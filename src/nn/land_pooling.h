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
// extensible (new landmarks can be fed to a trained model). Every operator
// reduces the *sorted* available values, so the output is bit-identical —
// not just mathematically equal — under any numbering of the landmarks.
//
// The forward ranks each (sample, filter) exactly once: it convolves all f
// filters of a landmark together, then counts every filter's ranks over
// order-preserving integer keys. The sorted order it keeps in PoolContext is
// what both backward passes route through, so neither sorts again.
//
// The backward pass is exact for all operators, including the interpolated
// deciles (gradient routed to the two order statistics that define the
// interpolation). Input gradients are produced because the attention step
// differentiates the loss w.r.t. raw features.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Holds a pointer to the caller's land batch, which must outlive the
  /// matching backward call. All buffers are reused capacity-aware, so a
  /// forward allocates nothing once the context has seen its shape.
  ///
  /// A sample's available landmarks are numbered by *slot* s < n, in
  /// ascending landmark order. The forward keeps, per sample, that slot
  /// list and, per (sample, filter), the convolved values, the sorted
  /// order and the mean: 2·(L + 1) + 6·L·f + 4·f bytes per sample, 1.5 KB
  /// at L = 10, f = 24.
  struct PoolContext {
    const Matrix* land = nullptr;
    std::size_t batch = 0;
    std::size_t landmarks = 0;
    std::vector<std::uint16_t> avail_count;  // (B) available landmarks n
    std::vector<std::uint16_t> avail;   // (B, L) slot -> landmark, s < n
    std::vector<float> conv;            // (B, L, f) F of slot s's landmark
    std::vector<std::uint16_t> order;   // (B, f, L) sorted position -> slot
    std::vector<float> avg;             // (B, f) the forward's exact mean
    // Per-sample scratch: the transposed kernel (k, f), rank keys and
    // counts (L, f), one sample's sorted values (f, L), and the routed
    // pooled gradients dF (L, f) of the sample being back-propagated.
    std::vector<float> kernel_t;
    std::vector<std::int32_t> key;
    std::vector<std::int32_t> rank;
    std::vector<float> sorted;
    std::vector<float> dconv;
  };

  /// k features per landmark, `filters` convolution filters, and the pooling
  /// operator bank. Kernel gets He-uniform init; bias starts at zero.
  LandPooling(std::size_t k, std::size_t filters, std::vector<PoolOp> ops,
              util::Rng& rng);

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
  /// Neither backward changes what the forward kept, so one forward may be
  /// followed by either backward, or by both in either order.
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
  /// Route sample i's pooled gradients through the forward's kept order to
  /// the per-(slot, filter) dF, into ctx.dconv (resized/zeroed here): the
  /// first stage of both backward passes.
  void route_grads(const Matrix& grad_pooled, PoolContext& ctx,
                   std::size_t i) const;

  std::size_t k_;
  std::size_t filters_;
  std::vector<PoolOp> ops_;
  Parameter kernel_;  // (f x k)
  Parameter bias_;    // (1 x f)
};

}  // namespace diagnet::nn
