// Differential suites for the per-tier microkernels behind
// tensor::dispatch: every compiled-in tier (scalar always, avx2 when the
// build and CPU have it) against long-double reference loops, across
// randomized spans that cross the vector-width and small-n thresholds —
// including the zero-length edge — plus the structural bit-exactness
// contracts from kernels.h.
#pragma once

#include "testkit/harness.h"

namespace diagnet::testkit {

/// axpy4/axpy1/gemv/dot/reduce_*/scale_div of every runnable tier vs
/// long-double references; axpy4 == 4x axpy1 and gemv == grouped axpy
/// bit-identity within a tier; scalar-vs-avx2 agreement to sum tolerance.
void check_kernel_tiers(CaseContext& ctx);

}  // namespace diagnet::testkit
