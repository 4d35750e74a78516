// Differential suites: production kernels vs the naive long-double oracles
// in testkit/oracle.h, across randomized shapes chosen to cross every
// dispatch threshold (scalar / tiled / parallel GEMM), plus finite-
// difference gradient checks for LandPooling and the batched-vs-sequential
// attention equivalence.
#pragma once

#include "testkit/harness.h"

namespace diagnet::testkit {

/// tensor::ops gemm / gemm_at_b_acc / gemm_a_bt against the
/// oracle, in the scalar, tiled and thread-pool shape regimes.
void check_gemm_oracle(CaseContext& ctx);

/// nn::softmax and softmax_cross_entropy (loss + gradient, mean and
/// sharded-sum variants) against the oracle.
void check_softmax_oracle(CaseContext& ctx);

/// LandPooling forward vs the from-first-principles oracle.
void check_landpool_oracle(CaseContext& ctx);

/// LandPooling kernel/bias/input gradients vs central finite differences
/// (samples regenerated until the pooling sort has a safe margin, so the
/// loss is smooth within the probe step).
void check_landpool_grad(CaseContext& ctx);

/// Gradient attention over a batch (a union of one group) is, row r,
/// bit-identical to the same union path on row r alone.
void check_attention_batch(CaseContext& ctx);

}  // namespace diagnet::testkit
