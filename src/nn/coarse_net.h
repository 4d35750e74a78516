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

  bool operator==(const CoarseNetConfig&) const = default;
};

/// Per-thread forward/backward state: activations, gradient scratch, and
/// (training only, see CoarseNet::init_workspace) one parameter-gradient
/// accumulator per parameter the net trains, in CoarseNet::parameters()
/// order — every layer for a general net, only the tail for a head. One
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
  /// Ordered like parameters(): owned only. backward() adds to them;
  /// init_workspace() zeroes them and SgdOptimizer::step() leaves them
  /// zeroed, so each training step starts from zero.
  std::vector<Matrix> param_grads;
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

  /// Parameter gradients only: accumulates into ws.param_grads, which
  /// must start zeroed (see CoarseWorkspace). Input gradients are not
  /// produced — the training loop discards them, and skipping the
  /// LandPooling dx pass saves a full K^T·dF sweep per step. The pass
  /// stops at the first layer the net owns: a head computes its tail's
  /// gradients and nothing below them. Each gradient is bit-identical to
  /// the general's full pass.
  void backward(const Matrix& grad_logits, CoarseWorkspace& ws) const;

  /// Input gradients only, after forward() or forward_fc() on `ws`: the FC
  /// stack's input gradient split into ws.grad_pooled and ws.grad_local.
  /// When grad_land is non-null (only after forward()), the LandPooling
  /// input backward follows into it. No parameter gradient is computed —
  /// the gradient-attention path at roughly half the FLOPs of backward().
  void backward_inputs(const Matrix& grad_logits, CoarseWorkspace& ws,
                       Matrix* grad_land = nullptr) const;

  /// The parameters this net owns — what a trainer updates — in a fixed
  /// order: the pooling kernel and bias, then (weight, bias) per layer, for
  /// a general net; only the tail (the last hidden layer and the output
  /// layer) for a head.
  std::vector<Parameter*> parameters();
  std::size_t parameter_count() const;

  const CoarseNetConfig& config() const { return config_; }
  LandPooling& pooling() { return *pool_; }
  const LandPooling& pooling() const { return *pool_; }

  /// A head on this net's representation: it shares the LandPooling and
  /// every hidden layer but the last (paper §IV-F freezes the convolution
  /// and the first hidden layer) and owns a copy of the tail, which is all
  /// that parameters() hands a trainer. The representation is frozen by
  /// construction: training a head never writes to it, and the net it came
  /// from sees no change while the head trains.
  std::unique_ptr<CoarseNet> head() const;

  /// head() with its tail read from `flat`, a full save_parameters() blob
  /// of this architecture; nullptr unless the blob's representation,
  /// narrowed to fp32, is this net's bit for bit.
  std::unique_ptr<CoarseNet> head(const std::vector<double>& flat) const;

  /// Flat parameter (de)serialisation over every layer, the shared ones
  /// included, ordered deterministically. Saving widens each fp32
  /// parameter to double exactly; loading narrows with round-to-nearest, so
  /// blobs written from fp64 parameters still load. A head loads only its
  /// tail and requires the blob's representation to equal the shared one.
  std::vector<double> save_parameters() const;
  void load_parameters(const std::vector<double>& flat);

 private:
  CoarseNet(const CoarseNet&) = default;  // shares every layer

  /// The first layer in fc_ this net owns: a head shares every hidden
  /// layer but the last (the representation).
  std::size_t first_owned() const {
    return head_ && fc_.size() >= 2 ? fc_.size() - 2 : 0;
  }
  /// Every parameter, shared or owned, in save_parameters() order.
  std::vector<Parameter*> all_parameters() const;
  /// Narrow `flat` into all_parameters() in order, except that a head
  /// compares the shared parameters bit for bit instead of writing them;
  /// false on the first mismatch.
  bool assign(const std::vector<double>& flat);

  CoarseNetConfig config_;
  std::shared_ptr<LandPooling> pool_;
  std::vector<std::shared_ptr<Linear>> fc_;  // hidden (ReLU after each) + out
  std::size_t local_offset_ = 0;  // where local features sit in the concat
  bool head_ = false;  // shares pool_ and fc_[0, first_owned())
};

}  // namespace diagnet::nn
