// Reference oracles: deliberately naive implementations of the numeric
// kernels, written for obviousness rather than speed, with long-double
// accumulation so they are strictly more precise than the fp32 production
// kernels they judge. A production kernel passes when it agrees with the
// oracle to within the forward error bound of an fp32 reduction of its
// length (see reduction_tol); the scalar losses below stay in long double
// end to end, so a central difference of them is a gradient reference
// accurate far beyond fp32.
#pragma once

#include <cfloat>
#include <cstddef>
#include <functional>
#include <vector>

#include "nn/batch.h"
#include "nn/coarse_net.h"
#include "nn/land_pooling.h"
#include "tensor/matrix.h"

namespace diagnet::testkit::oracle {

using tensor::Matrix;

/// Forward error bound of an n-term fp32 reduction, in any association
/// order and with or without FMA, relative to the sum of its terms'
/// magnitudes: γ(n+1) = (n+1)u / (1 - (n+1)u) with u = FLT_EPSILON / 2.
/// The extra term covers rounding the long-double reference to float.
constexpr double reduction_tol(std::size_t n) {
  const double nu = static_cast<double>(n + 1) * (FLT_EPSILON / 2.0);
  return nu / (1.0 - nu);
}

/// C = A · B, scalar triple loop, long-double accumulators.
Matrix gemm(const Matrix& a, const Matrix& b);
/// C = A^T · B for A stored (K x M).
Matrix gemm_at_b(const Matrix& a, const Matrix& b);
/// C = A · B^T for B stored (N x K).
Matrix gemm_a_bt(const Matrix& a, const Matrix& b);

/// Row-wise softmax with the max-shift, long-double sums.
Matrix softmax(const Matrix& logits);

/// Mean softmax cross-entropy; when grad != nullptr it receives
/// (softmax - onehot) / B, exactly the production contract.
double softmax_cross_entropy(const Matrix& logits,
                             const std::vector<std::size_t>& labels,
                             Matrix* grad);

/// LandPooling forward from first principles: F[λ] = K·x[λ] + b per
/// available landmark, then each pooling operator over a sorted copy of
/// the available values. Output is (B, ops·f) like the production layer.
Matrix land_pooling(const Matrix& kernel, const Matrix& bias,
                    const std::vector<nn::PoolOp>& ops, const Matrix& land,
                    const Matrix& mask);

/// Σ weights ⊙ land_pooling(...) over every (row, column), in long double:
/// a scalar of the pooled output for finite-difference references.
double pooled_dot(const Matrix& kernel, const Matrix& bias,
                  const std::vector<nn::PoolOp>& ops, const Matrix& land,
                  const Matrix& mask, const Matrix& weights);

/// Mean softmax cross-entropy of `net`'s logits on `batch` against
/// `labels`, with pooling, the FC stack (ReLU after every hidden layer)
/// and the loss all evaluated in long double from the net's fp32
/// parameters.
double coarse_net_loss(nn::CoarseNet& net, const nn::LandBatch& batch,
                       const std::vector<std::size_t>& labels);

/// Largest |got - want| / magnitude over all elements, where `magnitude` holds
/// the sum of each element's term magnitudes (e.g. |A|·|B| for a GEMM) —
/// the quantity an fp32 reduction's error is proportional to.
double max_scaled_err(const Matrix& got, const Matrix& want,
                      const Matrix& magnitude);

/// Element-wise |m|.
Matrix abs(const Matrix& m);

/// Central-difference step for fp32 entries, relative to max(|x|, 1). The
/// long-double references carry ~1e-19 relative noise, so a small step
/// costs nothing in accuracy and keeps the probe clear of the sort and ReLU
/// kinks; 2^-16 is still ~500 fp32 ulps wide, so x⁺ and x⁻ stay distinct.
inline constexpr float kFdStep = 1.0f / 65536.0f;

/// Central difference of the long-double reference `f` with respect to one
/// fp32 entry it reads; the entry is restored afterwards. The quotient
/// divides by the representable step x⁺ - x⁻, which fp32 holds exactly, so
/// only the O(h²) truncation error and f's long-double noise over h remain.
double central_difference(const std::function<double()>& f, float& x,
                          float h = kFdStep);

/// |got - want| relative to max(|got|, |want|, 1): the agreement measure
/// of an analytic fp32 gradient against a central_difference reference.
double grad_error(double got, double want);

/// Largest |a - b| over all elements (shapes must match).
double max_abs_diff(const Matrix& a, const Matrix& b);
/// Largest |a - b| / max(|a|, |b|, 1) over all elements.
double max_rel_diff(const Matrix& a, const Matrix& b);

}  // namespace diagnet::testkit::oracle
