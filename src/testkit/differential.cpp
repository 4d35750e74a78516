#include "testkit/differential.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/attention.h"
#include "nn/coarse_net.h"
#include "nn/land_pooling.h"
#include "nn/softmax.h"
#include "tensor/ops.h"
#include "testkit/gen.h"
#include "testkit/nets.h"
#include "testkit/oracle.h"

namespace diagnet::testkit {

namespace {

/// Row r of m as a one-row matrix.
tensor::Matrix row_of(const tensor::Matrix& m, std::size_t r) {
  tensor::Matrix out(1, m.cols());
  std::copy(m.row_ptr(r), m.row_ptr(r) + m.cols(), out.row_ptr(0));
  return out;
}

/// Row ra of a and row rb of b hold the same bits.
bool same_row(const tensor::Matrix& a, std::size_t ra, const tensor::Matrix& b,
              std::size_t rb) {
  return a.cols() == b.cols() &&
         std::memcmp(a.row_ptr(ra), b.row_ptr(rb),
                     a.cols() * sizeof(float)) == 0;
}

/// Softmax and cross-entropy against the long-double oracle, absolute on
/// probabilities and relative to max(|loss|, 1) on the loss: each
/// probability takes the max-shift subtraction (whose rounding exp turns
/// into a relative error u·|x - max|, at most u/e on the probability and
/// at most u·loss on its log), one exp, a `classes`-term sum and a
/// division. (classes + 3)·FLT_EPSILON covers it with a factor-2 margin.
double softmax_tol(std::size_t classes) {
  return static_cast<double>(classes + 3) * FLT_EPSILON;
}

/// LandPooling's fp32 reductions against the long-double oracle, relative
/// to max(|value|, 1): the convolution terms are bounded by
/// |K|·|x| <= sqrt(6/k)·|x| (He-uniform kernels over unit-normal
/// features), a few units per value, and the pooling reductions carry
/// them on. A reduction of n terms gets kPoolMagnitude · reduction_tol(n);
/// over 1000 iterations on both tiers the forward needs under 2 and the
/// gradients 3.2, so 16 leaves a 5x margin.
constexpr double kPoolMagnitude = 16.0;

struct GemmShape {
  std::size_t m, k, n;
  const char* regime;
};

/// One shape per dispatch regime of tensor::ops (kSmallMacs = 2^15 macs
/// separates the scalar loop from the tiled kernel; kParallelMacs = 2^22
/// sends the work to the thread pool).
std::vector<GemmShape> gemm_shapes(util::Rng& rng) {
  return {
      {gen::dim(rng, 1, 8), gen::dim(rng, 1, 16), gen::dim(rng, 1, 8),
       "scalar"},
      {gen::dim(rng, 33, 72), gen::dim(rng, 65, 140), gen::dim(rng, 33, 72),
       "tiled"},
      {gen::dim(rng, 150, 180), gen::dim(rng, 150, 180),
       gen::dim(rng, 150, 180), "parallel"},
  };
}

}  // namespace

void check_gemm_oracle(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;
  for (const GemmShape& shape : gemm_shapes(rng)) {
    ctx.begin_case();
    const std::string tag = std::string(" [") + shape.regime + " " +
                            std::to_string(shape.m) + "x" +
                            std::to_string(shape.k) + "x" +
                            std::to_string(shape.n) + "]";

    // C = A · B
    const tensor::Matrix a = gen::matrix(rng, shape.m, shape.k);
    const tensor::Matrix b = gen::matrix(rng, shape.k, shape.n);
    // Every element is a k-term fp32 reduction: its error against the
    // long-double oracle is bounded by reduction_tol(k) times the sum of
    // its terms' magnitudes, the same product over |A| and |B|.
    const double tol = oracle::reduction_tol(shape.k);
    tensor::Matrix c(shape.m, shape.n);
    tensor::gemm(a, b, c);
    ctx.check_near(oracle::max_scaled_err(
                       c, oracle::gemm(a, b),
                       oracle::gemm(oracle::abs(a), oracle::abs(b))),
                   0.0, tol, "gemm vs oracle" + tag);

    // C += A^T · B onto zeros, with A stored (K x M)
    const tensor::Matrix at = gen::matrix(rng, shape.k, shape.m);
    tensor::Matrix c2(shape.m, shape.n);
    tensor::gemm_at_b_acc(at, b, c2);
    const tensor::Matrix want_atb = oracle::gemm_at_b(at, b);
    const tensor::Matrix mag_atb =
        oracle::gemm_at_b(oracle::abs(at), oracle::abs(b));
    ctx.check_near(oracle::max_scaled_err(c2, want_atb, mag_atb), 0.0, tol,
                   "gemm_at_b_acc onto zeros vs oracle" + tag);

    // C += A^T · B on a random pre-filled accumulator: k + 1 terms, and
    // one more rounding for adding `before` to the rounded reference.
    const tensor::Matrix before = gen::matrix(rng, shape.m, shape.n);
    tensor::Matrix c3 = before;
    tensor::gemm_at_b_acc(at, b, c3);
    tensor::Matrix want_acc = want_atb;
    want_acc += before;
    tensor::Matrix mag_acc = mag_atb;
    mag_acc += oracle::abs(before);
    ctx.check_near(oracle::max_scaled_err(c3, want_acc, mag_acc), 0.0,
                   oracle::reduction_tol(shape.k + 2),
                   "gemm_at_b_acc vs oracle" + tag);

    // C = A · B^T with B stored (N x K)
    const tensor::Matrix bt = gen::matrix(rng, shape.n, shape.k);
    tensor::Matrix c4(shape.m, shape.n);
    tensor::gemm_a_bt(a, bt, c4);
    ctx.check_near(oracle::max_scaled_err(
                       c4, oracle::gemm_a_bt(a, bt),
                       oracle::gemm_a_bt(oracle::abs(a), oracle::abs(bt))),
                   0.0, tol, "gemm_a_bt vs oracle" + tag);
  }
}

void check_softmax_oracle(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;
  ctx.begin_case();
  const std::size_t batch = gen::dim(rng, 1, 12);
  const std::size_t classes = gen::dim(rng, 2, 9);
  // Large logits to exercise the max-shift stability path.
  const tensor::Matrix logits = gen::matrix(rng, batch, classes, 20.0);
  const std::vector<std::size_t> labels = gen::labels(rng, batch, classes);

  const double tol = softmax_tol(classes);
  const tensor::Matrix probs = nn::softmax(logits);
  const tensor::Matrix want_probs = oracle::softmax(logits);
  ctx.check_near(oracle::max_abs_diff(probs, want_probs), 0.0, tol,
                 "softmax vs oracle");
  for (std::size_t i = 0; i < batch; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < classes; ++j) sum += probs(i, j);
    ctx.check_near(sum, 1.0, tol, "softmax row sum");
  }

  ctx.begin_case();
  tensor::Matrix grad, want_grad;
  const double loss = nn::softmax_cross_entropy(logits, labels, &grad);
  const double want_loss =
      oracle::softmax_cross_entropy(logits, labels, &want_grad);
  ctx.check_near(loss, want_loss, tol, "cross-entropy loss vs oracle");
  ctx.check_near(oracle::max_abs_diff(grad, want_grad), 0.0, tol,
                 "cross-entropy gradient vs oracle");

  // Sharded-sum variant: sum/B with grad_scale 1/B must equal the mean.
  ctx.begin_case();
  tensor::Matrix shard_grad;
  const double sum_loss = nn::softmax_cross_entropy_sum(
      logits, labels.data(), labels.size(), &shard_grad,
      1.0 / static_cast<double>(batch));
  ctx.check_near(sum_loss / static_cast<double>(batch), want_loss, tol,
                 "sharded-sum loss vs oracle");
  ctx.check_near(oracle::max_abs_diff(shard_grad, want_grad), 0.0, tol,
                 "sharded-sum gradient vs oracle");
}

void check_landpool_oracle(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;
  ctx.begin_case();
  const std::size_t k = gen::dim(rng, 2, 6);
  const std::size_t filters = gen::dim(rng, 2, 5);
  const std::size_t landmarks = gen::dim(rng, 2, 9);
  const std::size_t batch = gen::dim(rng, 1, 5);
  util::Rng layer_rng = rng.fork(11);
  nn::LandPooling pool(k, filters, nn::default_pool_ops(), layer_rng);
  const nn::LandBatch input = gen::land_batch(rng, batch, landmarks, k, 1);

  const tensor::Matrix out = pool_forward(pool, input.land, input.mask);
  const tensor::Matrix want = oracle::land_pooling(
      pool.kernel().value, pool.bias().value, pool.ops(), input.land,
      input.mask);
  // Each pooled value reduces a (k + 1)-term convolution and then up to
  // `landmarks` convolved values (avg, var; the deciles interpolate two).
  ctx.check_near(oracle::max_rel_diff(out, want), 0.0,
                 kPoolMagnitude * oracle::reduction_tol(k + 1 + landmarks),
                 "LandPooling forward vs oracle");

  // Rows are independent: each row pooled and back-propagated alone gives
  // the bits of the batched pass — what the shared-pooling union relies on.
  ctx.begin_case();
  const tensor::Matrix grad_pooled =
      gen::matrix(rng, batch, pool.out_features());
  nn::LandPooling::PoolContext pctx;
  tensor::Matrix pooled, dx;
  pool.forward(input.land, input.mask, pctx, pooled);
  pool.backward_input(grad_pooled, pctx, dx);
  for (std::size_t r = 0; r < batch; ++r) {
    const tensor::Matrix land = row_of(input.land, r);
    const tensor::Matrix mask = row_of(input.mask, r);
    nn::LandPooling::PoolContext row_ctx;
    tensor::Matrix row_pooled, row_dx;
    pool.forward(land, mask, row_ctx, row_pooled);
    pool.backward_input(row_of(grad_pooled, r), row_ctx, row_dx);
    ctx.check(same_row(row_pooled, 0, pooled, r),
              "pooled row " + std::to_string(r) + " must match alone");
    ctx.check(same_row(row_dx, 0, dx, r),
              "input gradient row " + std::to_string(r) +
                  " must match alone");
  }

  // A numerically hostile row (NaN, ±inf and overflowing features) leaves
  // its batch-mates' bits untouched. Over 16 landmarks the AVX2 tier's
  // reductions leave their sequential short path, so this also pins that
  // a NaN row's ranks (NaNs last) stay row-local on the vector path.
  ctx.begin_case();
  const std::size_t wide = gen::dim(rng, 17, 40);
  const nn::LandBatch clean = gen::land_batch(rng, 2, wide, k, 1);
  nn::LandBatch hostile = gen::land_batch(rng, 3, wide, k, 1);
  const float poison[] = {std::nanf(""), 3e38f, -3e38f,
                          std::numeric_limits<float>::infinity()};
  for (std::size_t c = 0; c < hostile.land.cols(); ++c) {
    hostile.land(0, c) = clean.land(0, c);
    hostile.land(1, c) = poison[c % 4];
    hostile.land(2, c) = clean.land(1, c);
  }
  for (std::size_t lam = 0; lam < wide; ++lam) {
    hostile.mask(0, lam) = clean.mask(0, lam);
    hostile.mask(1, lam) = 1.0f;
    hostile.mask(2, lam) = clean.mask(1, lam);
  }
  const tensor::Matrix clean_grad = gen::matrix(rng, 2, pool.out_features());
  tensor::Matrix hostile_grad(3, pool.out_features(), 1.0f);
  for (std::size_t c = 0; c < pool.out_features(); ++c) {
    hostile_grad(0, c) = clean_grad(0, c);
    hostile_grad(2, c) = clean_grad(1, c);
  }
  nn::LandPooling::PoolContext clean_ctx, hostile_ctx;
  tensor::Matrix clean_pooled, clean_dx, hostile_pooled, hostile_dx;
  pool.forward(clean.land, clean.mask, clean_ctx, clean_pooled);
  pool.backward_input(clean_grad, clean_ctx, clean_dx);
  pool.forward(hostile.land, hostile.mask, hostile_ctx, hostile_pooled);
  pool.backward_input(hostile_grad, hostile_ctx, hostile_dx);
  for (const auto& [c, h] :
       {std::pair<std::size_t, std::size_t>{0, 0}, {1, 2}}) {
    ctx.check(same_row(clean_pooled, c, hostile_pooled, h),
              "a hostile row must not move its batch-mates' pooled bits");
    ctx.check(same_row(clean_dx, c, hostile_dx, h),
              "a hostile row must not move its batch-mates' gradients");
  }
}

void check_landpool_grad(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;
  ctx.begin_case();
  const std::size_t k = gen::dim(rng, 2, 4);
  const std::size_t filters = gen::dim(rng, 2, 3);
  const std::size_t landmarks = gen::dim(rng, 3, 6);
  util::Rng layer_rng = rng.fork(12);
  nn::LandPooling pool(k, filters, nn::default_pool_ops(), layer_rng);

  // The pooled output is only piecewise smooth (the sort can reorder),
  // so redraw until every pair of conv values inside one (sample, filter)
  // group has a margin far wider than the probe step.
  nn::LandBatch input;
  bool separated = false;
  for (std::size_t attempt = 0; attempt < 32 && !separated; ++attempt) {
    input = gen::land_batch(rng, 1, landmarks, k, 1, /*density=*/1.0);
    separated = true;
    for (std::size_t f = 0; f < filters && separated; ++f) {
      std::vector<double> values;
      for (std::size_t lam = 0; lam < landmarks; ++lam) {
        double s = pool.bias().value(0, f);
        for (std::size_t t = 0; t < k; ++t)
          s += pool.kernel().value(f, t) * input.land(0, lam * k + t);
        values.push_back(s);
      }
      for (std::size_t x = 0; x < values.size() && separated; ++x)
        for (std::size_t y = x + 1; y < values.size(); ++y)
          if (std::abs(values[x] - values[y]) < 1e-3) {
            separated = false;
            break;
          }
    }
  }
  if (!separated) return;  // pathologically tied draw: skip this iteration

  // Scalar loss L = Σ w ⊙ pool(land); dL/dpooled = w. The reference is
  // the long-double oracle, so its central difference is exact up to the
  // kinks the separation check above keeps the probe step away from.
  const tensor::Matrix weights = gen::matrix(rng, 1, pool.out_features());
  tensor::Matrix land = input.land;
  const auto loss = [&] {
    return oracle::pooled_dot(pool.kernel().value, pool.bias().value,
                              pool.ops(), land, input.mask, weights);
  };

  nn::LandPooling::PoolContext pctx;
  tensor::Matrix pooled, dx;
  tensor::Matrix kernel_grad(filters, k), bias_grad(1, filters);
  pool.forward(input.land, input.mask, pctx, pooled);
  pool.backward_params(weights, pctx, kernel_grad, bias_grad);
  pool.backward_input(weights, pctx, dx);

  // The fp32 gradients route each pooled gradient through at most four
  // fp32 ops, then reduce over the landmarks (kernel, bias) or the filters
  // (input); kPoolMagnitude bounds the routed terms' magnitudes.
  const double tol =
      kPoolMagnitude * oracle::reduction_tol(landmarks + filters + 4);
  // Input gradient: probe a handful of coordinates.
  for (std::size_t probe = 0; probe < 6; ++probe) {
    const std::size_t col =
        static_cast<std::size_t>(rng.uniform_index(input.land.cols()));
    const double fd = oracle::central_difference(loss, land(0, col));
    ctx.check_near(oracle::grad_error(dx(0, col), fd), 0.0, tol,
                   "input gradient vs finite difference, col " +
                       std::to_string(col));
  }

  // Parameter gradients: probe kernel and bias entries.
  for (std::size_t probe = 0; probe < 6; ++probe) {
    const std::size_t f =
        static_cast<std::size_t>(rng.uniform_index(filters));
    const std::size_t t = static_cast<std::size_t>(rng.uniform_index(k));
    const double fd = oracle::central_difference(loss, pool.kernel().value(f, t));
    ctx.check_near(oracle::grad_error(kernel_grad(f, t), fd), 0.0, tol,
                   "kernel gradient vs finite difference (" +
                       std::to_string(f) + "," + std::to_string(t) + ")");
  }
  for (std::size_t f = 0; f < filters; ++f) {
    const double fd = oracle::central_difference(loss, pool.bias().value(0, f));
    ctx.check_near(oracle::grad_error(bias_grad(0, f), fd), 0.0, tol,
                   "bias gradient vs finite difference, filter " +
                       std::to_string(f));
  }
}

void check_attention_batch(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;
  ctx.begin_case();
  const std::size_t L = gen::dim(rng, 3, 9);
  const netsim::Topology topo = gen::topology(rng, L);
  const data::FeatureSpace fs(topo);
  const nn::CoarseNetConfig config = gen::small_coarse_config(rng);
  util::Rng net_rng = rng.fork(13);
  nn::CoarseNet net(config, net_rng);

  const std::size_t batch = gen::dim(rng, 2, 6);
  const nn::LandBatch all = gen::land_batch(
      rng, batch, L, config.features_per_landmark, config.local_features);

  const std::vector<core::AttentionResult> batched = attention(net, all, fs);
  ctx.check_eq(batched.size(), batch, "one attention result per row");

  for (std::size_t r = 0; r < batch; ++r) {
    ctx.begin_case();
    nn::LandBatch row;
    row.land = tensor::Matrix(1, all.land.cols());
    row.mask = tensor::Matrix(1, all.mask.cols());
    row.local = tensor::Matrix(1, all.local.cols());
    for (std::size_t j = 0; j < all.land.cols(); ++j)
      row.land(0, j) = all.land(r, j);
    for (std::size_t j = 0; j < all.mask.cols(); ++j)
      row.mask(0, j) = all.mask(r, j);
    for (std::size_t j = 0; j < all.local.cols(); ++j)
      row.local(0, j) = all.local(r, j);

    const core::AttentionResult single = attention(net, row, fs).front();
    ctx.check_eq(batched[r].coarse_argmax, single.coarse_argmax,
                 "argmax, row " + std::to_string(r));
    for (std::size_t c = 0; c < single.coarse_probs.size(); ++c)
      ctx.check(batched[r].coarse_probs[c] == single.coarse_probs[c],
                "coarse prob must be bit-identical, row " +
                    std::to_string(r));
    for (std::size_t j = 0; j < single.gamma.size(); ++j)
      ctx.check(batched[r].gamma[j] == single.gamma[j],
                "gamma must be bit-identical, row " + std::to_string(r) +
                    " feature " + std::to_string(j));
  }
}

}  // namespace diagnet::testkit
