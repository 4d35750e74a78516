// The DiagNet coarse-prediction network (paper Fig. 2, steps 1-4):
//
//   land features ──> LandPooling ──┐
//                                   ├─ concat ─> FC(512) ─ ReLU ─ FC(128)
//   local features ─────────────────┘           ─ ReLU ─ FC(c) ─ softmax
//
// The network exposes input gradients (both landmark and local) because the
// attention step (Fig. 2, step 5) differentiates the ideal-label loss with
// respect to the features.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/batch.h"
#include "nn/land_pooling.h"
#include "nn/linear.h"
#include "util/rng.h"

namespace diagnet::nn {

struct CoarseNetConfig {
  std::size_t features_per_landmark = 5;   // k
  std::size_t local_features = 5;
  std::size_t filters = 24;                // f
  std::vector<PoolOp> pool_ops = default_pool_ops();
  std::vector<std::size_t> hidden = {512, 128};
  std::size_t classes = 7;                 // c
};

/// Per-thread forward/backward state: activations, gradient scratch, and
/// (training only, see CoarseNet::init_workspace) a full set of
/// parameter-gradient accumulators in CoarseNet::parameters() order. One
/// workspace per thread lets any number of training shards or diagnosis
/// chunks run concurrently against one shared const network; every buffer
/// is reused with capacity-aware resizes, so steady-state steps allocate
/// nothing.
struct CoarseWorkspace {
  LandPooling::PoolContext pool;
  Matrix pooled;             // (B, ops·f)
  Matrix concat;             // (B, ops·f + local): input to the first FC
  std::vector<Matrix> act;   // act[i]: post-ReLU output of hidden layer i
  Matrix logits;             // (B, c)
  Matrix grad_logits;        // dLoss/dLogits, filled by the loss
  Matrix grad_a, grad_b;     // ping-pong input-gradient buffers
  Matrix grad_pooled;        // concat gradient split, pooled part
  Matrix grad_local;         // concat gradient split, local part
  std::vector<Matrix> param_grads;  // ordered like parameters()

  /// Zero the parameter-gradient accumulators (start of every step).
  void zero_param_grads() {
    for (Matrix& g : param_grads) g.fill(0.0);
  }
};

class CoarseNet {
 public:
  CoarseNet(const CoarseNetConfig& config, util::Rng& rng);

  /// Size a workspace's parameter-gradient accumulators (zeroed) for this
  /// network — needed by backward() only; inference workspaces skip it.
  /// forward/backward below size the remaining buffers on the fly.
  void init_workspace(CoarseWorkspace& ws) const;

  /// Logits over the c coarse fault families, (B x c): pooling into
  /// ws.pool/ws.pooled, then forward_fc(). Every intermediate goes into
  /// `ws` and nothing is cached on the layers — const, so threads share
  /// one network. Returns ws.logits.
  const Matrix& forward(const LandBatch& batch, CoarseWorkspace& ws) const;

  /// The FC stack alone, for rows whose pooling already ran (`pooled` is
  /// (B, ops·f), `local` is (B, local_features)): concat, hidden layers,
  /// logits. The shared-pooling attention path pools a union batch once and
  /// hands each head its rows. Per-row bits match forward() of the same
  /// rows — the kernels' per-row arithmetic is batch-size invariant.
  const Matrix& forward_fc(const Matrix& pooled, const Matrix& local,
                           CoarseWorkspace& ws) const;

  /// Parameter gradients only: accumulates into ws.param_grads
  /// (zero_param_grads() first). Input gradients are not produced — the
  /// training loop discards them, and skipping the LandPooling dx pass
  /// saves a full K^T·dF sweep per step.
  void backward(const Matrix& grad_logits, CoarseWorkspace& ws) const;

  /// Input gradients only, after forward() or forward_fc() on `ws`: the FC
  /// stack's input gradient split into ws.grad_pooled and ws.grad_local.
  /// When grad_land is non-null (only after forward()), the LandPooling
  /// input backward follows into it. No parameter gradient is computed —
  /// the gradient-attention path at roughly half the FLOPs of backward().
  void backward_inputs(const Matrix& grad_logits, CoarseWorkspace& ws,
                       Matrix* grad_land = nullptr) const;

  std::vector<Parameter*> parameters();
  std::size_t parameter_count() const;
  std::size_t trainable_parameter_count() const;

  /// Freeze the representation layers (LandPooling kernel + first hidden
  /// layer); only the final fully-connected layers stay trainable. This is
  /// the service-specialisation split of paper §IV-F.
  void freeze_representation(bool frozen = true);

  /// Int8 inference for the FC stack (the LandPooling kernel stays fp64 —
  /// see nn/quantized.h). Enabling snaps the fp weights onto the int8 grid
  /// so gradient attention differentiates the served function.
  void set_quantized(bool on);
  bool quantized() const;

  /// True when this net's LandPooling computes bit-identical pooled rows to
  /// `other`'s — the precondition for the serving router to share one
  /// pooling pass across specialized heads.
  bool shares_pooling_with(const CoarseNet& other) const;

  const CoarseNetConfig& config() const { return config_; }
  LandPooling& pooling() { return pool_; }
  const LandPooling& pooling() const { return pool_; }

  /// Deep copy (shares nothing) — used to derive specialised models from
  /// the general model and to rebuild them on load.
  std::unique_ptr<CoarseNet> clone() const;

  /// Flat parameter (de)serialisation, ordered deterministically.
  std::vector<double> save_parameters() const;
  void load_parameters(const std::vector<double>& flat);

 private:
  CoarseNet(const CoarseNet&) = default;  // for clone()

  CoarseNetConfig config_;
  LandPooling pool_;
  std::vector<Linear> fc_;     // hidden layers (ReLU after each) + output
  std::size_t local_offset_ = 0;  // where local features sit in the concat
};

}  // namespace diagnet::nn
