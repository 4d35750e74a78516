#include "testkit/invariants.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "core/attention.h"
#include "core/ensemble.h"
#include "core/score_weighting.h"
#include "data/feature_space.h"
#include "nn/coarse_net.h"
#include "nn/land_pooling.h"
#include "testkit/gen.h"
#include "testkit/nets.h"
#include "testkit/oracle.h"

namespace diagnet::testkit {

namespace {

constexpr double kTol = 1e-9;

/// Move every landmark block λ of `batch` to slot perm[λ].
nn::LandBatch permute_landmarks(const nn::LandBatch& batch,
                                const std::vector<std::size_t>& perm,
                                std::size_t k) {
  nn::LandBatch out;
  out.land = tensor::Matrix(batch.land.rows(), batch.land.cols());
  out.mask = tensor::Matrix(batch.mask.rows(), batch.mask.cols());
  out.local = batch.local;
  for (std::size_t i = 0; i < batch.land.rows(); ++i) {
    for (std::size_t lam = 0; lam < perm.size(); ++lam) {
      out.mask(i, perm[lam]) = batch.mask(i, lam);
      for (std::size_t t = 0; t < k; ++t)
        out.land(i, perm[lam] * k + t) = batch.land(i, lam * k + t);
    }
  }
  return out;
}

/// Feature index map induced by a landmark permutation: landmark features
/// follow their landmark, local features stay put.
std::vector<std::size_t> feature_map(const data::FeatureSpace& fs,
                                     const std::vector<std::size_t>& perm) {
  std::vector<std::size_t> map(fs.total());
  for (std::size_t j = 0; j < fs.total(); ++j) {
    if (fs.is_landmark_feature(j)) {
      map[j] = fs.landmark_feature(perm[fs.landmark_of(j)], fs.metric_of(j));
    } else {
      map[j] = j;
    }
  }
  return map;
}

/// Scores -> ranking with the deterministic (score desc, index asc)
/// ordering; only used to compare two rankings of near-identical scores.
std::vector<std::size_t> ranking_of(const std::vector<double>& scores) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
  });
  return order;
}

/// Two rankings agree position by position; a mismatch is tolerated only
/// where the scores are tied within `tol` (FP reordering noise).
bool rankings_agree(const std::vector<std::size_t>& a,
                    const std::vector<double>& scores_a,
                    const std::vector<std::size_t>& b,
                    const std::vector<double>& scores_b, double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r] == b[r]) continue;
    if (std::abs(scores_a[a[r]] - scores_b[b[r]]) > tol) return false;
  }
  return true;
}

}  // namespace

void check_pooling_permutation(CaseContext& ctx) {
  ctx.begin_case();
  util::Rng& rng = ctx.rng;
  const std::size_t k = gen::dim(rng, 2, 6);
  const std::size_t filters = gen::dim(rng, 2, 5);
  const std::size_t landmarks = gen::dim(rng, 3, 9);
  const std::size_t batch_size = gen::dim(rng, 1, 4);

  std::vector<nn::PoolOp> ops = nn::default_pool_ops();
  util::Rng layer_rng = rng.fork(1);
  nn::LandPooling pool(k, filters, ops, layer_rng);

  const nn::LandBatch batch =
      gen::land_batch(rng, batch_size, landmarks, k, 1);
  const auto perm = gen::permutation(rng, landmarks);
  const nn::LandBatch permuted = permute_landmarks(batch, perm, k);

  // Every pooling operator reduces the sorted values, so the pooled rows —
  // and the logits computed from them — match bit for bit.
  const tensor::Matrix base = pool_forward(pool, batch.land, batch.mask);
  const tensor::Matrix out = pool_forward(pool, permuted.land, permuted.mask);
  ctx.check(oracle::max_abs_diff(base, out) == 0.0,
            "pooled features must ignore landmark order");

  // End to end through a random coarse network (k = 5 / local = 5).
  ctx.begin_case();
  const nn::CoarseNetConfig config = gen::small_coarse_config(rng);
  util::Rng net_rng = rng.fork(2);
  nn::CoarseNet net(config, net_rng);
  const std::size_t L = gen::dim(rng, 3, 10);
  const nn::LandBatch nb = gen::land_batch(
      rng, batch_size, L, config.features_per_landmark,
      config.local_features);
  const auto nperm = gen::permutation(rng, L);
  const nn::LandBatch npermuted =
      permute_landmarks(nb, nperm, config.features_per_landmark);
  const tensor::Matrix base_logits = logits(net, nb);
  const tensor::Matrix logits_perm = logits(net, npermuted);
  ctx.check(oracle::max_abs_diff(base_logits, logits_perm) == 0.0,
            "coarse logits must ignore landmark order");
}

void check_ranking_permutation(CaseContext& ctx) {
  ctx.begin_case();
  util::Rng& rng = ctx.rng;
  const std::size_t L = gen::dim(rng, 4, 10);
  const netsim::Topology topo = gen::topology(rng, L);
  const data::FeatureSpace fs(topo);
  const std::size_t m = fs.total();

  const nn::CoarseNetConfig config = gen::small_coarse_config(rng);
  util::Rng net_rng = rng.fork(3);
  nn::CoarseNet net(config, net_rng);

  const nn::LandBatch sample = gen::land_batch(
      rng, 1, L, config.features_per_landmark, config.local_features);
  const auto perm = gen::permutation(rng, L);
  const nn::LandBatch permuted =
      permute_landmarks(sample, perm, config.features_per_landmark);
  const auto map = feature_map(fs, perm);

  const core::AttentionResult a = attention(net, sample, fs).front();
  const core::AttentionResult b = attention(net, permuted, fs).front();

  ctx.check_eq(a.coarse_argmax, b.coarse_argmax,
               "coarse argmax must ignore landmark order");
  for (std::size_t c = 0; c < a.coarse_probs.size(); ++c)
    ctx.check_near(b.coarse_probs[c], a.coarse_probs[c], kTol,
                   "coarse probability " + std::to_string(c));
  for (std::size_t j = 0; j < m; ++j)
    ctx.check_near(b.gamma[map[j]], a.gamma[j], kTol,
                   "attention gamma of feature " + std::to_string(j));

  // Algorithm 1 tail must commute with the feature permutation too.
  ctx.begin_case();
  const auto tuned_a =
      core::weight_scores(a.gamma, a.coarse_probs, a.coarse_argmax, fs);
  const auto tuned_b =
      core::weight_scores(b.gamma, b.coarse_probs, b.coarse_argmax, fs);
  for (std::size_t j = 0; j < m; ++j)
    ctx.check_near(tuned_b[map[j]], tuned_a[j], kTol,
                   "tuned score of feature " + std::to_string(j));

  // Ensemble blend and final ranking.
  ctx.begin_case();
  const auto aux_a = gen::distribution(rng, m);
  std::vector<double> aux_b(m);
  for (std::size_t j = 0; j < m; ++j) aux_b[map[j]] = aux_a[j];
  std::vector<std::size_t> unknown_a, unknown_b;
  for (std::size_t j = 0; j < m; ++j)
    if (fs.is_landmark_feature(j) && rng.bernoulli(0.25)) {
      unknown_a.push_back(j);
      unknown_b.push_back(map[j]);
    }
  double w_a = 0.0, w_b = 0.0;
  const auto final_a =
      core::ensemble_average(tuned_a, aux_a, unknown_a, &w_a);
  const auto final_b =
      core::ensemble_average(tuned_b, aux_b, unknown_b, &w_b);
  ctx.check_near(w_b, w_a, kTol, "ensemble weight w_U");
  for (std::size_t j = 0; j < m; ++j)
    ctx.check_near(final_b[map[j]], final_a[j], kTol,
                   "final score of feature " + std::to_string(j));

  std::vector<std::size_t> rank_a = ranking_of(final_a);
  for (auto& j : rank_a) j = map[j];  // into the permuted index space
  const std::vector<std::size_t> rank_b = ranking_of(final_b);
  std::vector<double> mapped_scores(m);
  for (std::size_t j = 0; j < m; ++j) mapped_scores[map[j]] = final_a[j];
  ctx.check(rankings_agree(rank_a, mapped_scores, rank_b, final_b, 1e-12),
            "final ranking must ignore landmark order");
}

void check_extensibility_dims(CaseContext& ctx) {
  ctx.begin_case();
  util::Rng& rng = ctx.rng;
  const nn::CoarseNetConfig config = gen::small_coarse_config(rng);
  util::Rng net_rng = rng.fork(4);
  nn::CoarseNet net(config, net_rng);
  const std::size_t expected =
      config.pool_ops.size() * config.filters;

  // Two batches with different landmark counts through the same network:
  // every output dimension must be independent of L.
  const std::size_t l1 = gen::dim(rng, 1, 6);
  const std::size_t l2 = gen::dim(rng, 7, 14);
  for (const std::size_t L : {l1, l2}) {
    const nn::LandBatch batch = gen::land_batch(
        rng, 2, L, config.features_per_landmark, config.local_features);
    const tensor::Matrix pooled =
        pool_forward(net.pooling(), batch.land, batch.mask);
    ctx.check_eq(pooled.cols(), expected,
                 "pooled width with L=" + std::to_string(L));
    const tensor::Matrix out = logits(net, batch);
    ctx.check_eq(out.cols(), config.classes,
                 "logit width with L=" + std::to_string(L));
    ctx.check_eq(out.rows(), batch.size(),
                 "logit rows with L=" + std::to_string(L));
  }
}

void check_extensibility_masked_noop(CaseContext& ctx) {
  ctx.begin_case();
  util::Rng& rng = ctx.rng;
  const std::size_t L = gen::dim(rng, 3, 8);
  const std::size_t extra = gen::dim(rng, 1, 3);
  const netsim::Topology topo_base = gen::topology(rng, L);
  const netsim::Topology topo_ext = gen::topology(rng, L + extra);
  const data::FeatureSpace fs_base(topo_base);
  const data::FeatureSpace fs_ext(topo_ext);

  const nn::CoarseNetConfig config = gen::small_coarse_config(rng);
  util::Rng net_rng = rng.fork(5);
  nn::CoarseNet net(config, net_rng);
  const std::size_t k = config.features_per_landmark;

  const nn::LandBatch base =
      gen::land_batch(rng, 1, L, k, config.local_features);
  nn::LandBatch ext;
  ext.local = base.local;
  ext.land = gen::matrix(rng, 1, (L + extra) * k, 10.0);  // garbage values
  ext.mask = tensor::Matrix(1, L + extra);                 // extras masked
  for (std::size_t lam = 0; lam < L; ++lam) {
    ext.mask(0, lam) = base.mask(0, lam);
    for (std::size_t t = 0; t < k; ++t)
      ext.land(0, lam * k + t) = base.land(0, lam * k + t);
  }

  const tensor::Matrix logits_base = logits(net, base);
  const tensor::Matrix logits_ext = logits(net, ext);
  ctx.check(oracle::max_abs_diff(logits_base, logits_ext) == 0.0,
            "masked extra landmarks must be a bit-exact no-op on logits");

  ctx.begin_case();
  const core::AttentionResult att_base =
      attention(net, base, fs_base).front();
  const core::AttentionResult att_ext = attention(net, ext, fs_ext).front();
  for (std::size_t c = 0; c < att_base.coarse_probs.size(); ++c)
    ctx.check(att_ext.coarse_probs[c] == att_base.coarse_probs[c],
              "coarse probs must be bit-exact under masked extension");
  for (std::size_t lam = 0; lam < L; ++lam)
    for (std::size_t t = 0; t < k; ++t) {
      const std::size_t j = lam * k + t;
      ctx.check(att_ext.gamma[j] == att_base.gamma[j],
                "surviving gamma must be bit-exact, feature " +
                    std::to_string(j));
    }
  for (std::size_t lam = L; lam < L + extra; ++lam)
    for (std::size_t t = 0; t < k; ++t)
      ctx.check(att_ext.gamma[lam * k + t] == 0.0,
                "masked-out landmark features must carry exactly 0 gamma");
  for (std::size_t t = 0; t < fs_base.local_count(); ++t) {
    const std::size_t jb = L * k + t;
    const std::size_t je = (L + extra) * k + t;
    ctx.check(att_ext.gamma[je] == att_base.gamma[jb],
              "local gamma must be bit-exact under masked extension");
  }
}

void check_extensibility_ranking(CaseContext& ctx) {
  ctx.begin_case();
  util::Rng& rng = ctx.rng;
  const std::size_t L = gen::dim(rng, 3, 8);
  const std::size_t extra = gen::dim(rng, 1, 3);
  const netsim::Topology topo_base = gen::topology(rng, L);
  const netsim::Topology topo_ext = gen::topology(rng, L + extra);
  const data::FeatureSpace fs_base(topo_base);
  const data::FeatureSpace fs_ext(topo_ext);
  const std::size_t k = fs_base.metrics_per_landmark();
  const std::size_t m_base = fs_base.total();
  const std::size_t m_ext = fs_ext.total();

  // Extend an attention distribution with zero mass on the new (never
  // probed) landmarks — exactly what a trained model produces for them —
  // and push both through Algorithm 1 + ensemble.
  const auto gamma_base = gen::distribution(rng, m_base);
  std::vector<double> gamma_ext(m_ext, 0.0);
  for (std::size_t lam = 0; lam < L; ++lam)
    for (std::size_t t = 0; t < k; ++t)
      gamma_ext[lam * k + t] = gamma_base[lam * k + t];
  for (std::size_t t = 0; t < fs_base.local_count(); ++t)
    gamma_ext[(L + extra) * k + t] = gamma_base[L * k + t];

  const auto coarse = gen::distribution(rng, netsim::kFaultFamilies);
  const auto argmax = static_cast<std::size_t>(
      std::max_element(coarse.begin(), coarse.end()) - coarse.begin());

  const auto tuned_base =
      core::weight_scores(gamma_base, coarse, argmax, fs_base);
  const auto tuned_ext =
      core::weight_scores(gamma_ext, coarse, argmax, fs_ext);

  const auto survivor_ext = [&](std::size_t j) -> std::size_t {
    // Index of base feature j inside the extended space.
    return fs_base.is_landmark_feature(j) ? j : j + extra * k;
  };
  for (std::size_t j = 0; j < m_base; ++j)
    ctx.check_near(tuned_ext[survivor_ext(j)], tuned_base[j], kTol,
                   "tuned survivor score, feature " + std::to_string(j));

  ctx.begin_case();
  const auto aux_base = gen::distribution(rng, m_base);
  std::vector<double> aux_ext(m_ext, 0.0);
  for (std::size_t j = 0; j < m_base; ++j)
    aux_ext[survivor_ext(j)] = aux_base[j];

  std::vector<std::size_t> unknown_base, unknown_ext;
  for (std::size_t j = 0; j < m_base; ++j)
    if (fs_base.is_landmark_feature(j) && rng.bernoulli(0.2)) {
      unknown_base.push_back(j);
      unknown_ext.push_back(j);
    }
  for (std::size_t lam = L; lam < L + extra; ++lam)
    for (std::size_t t = 0; t < k; ++t)
      unknown_ext.push_back(lam * k + t);  // new landmarks are unknown

  double w_base = 0.0, w_ext = 0.0;
  const auto final_base =
      core::ensemble_average(tuned_base, aux_base, unknown_base, &w_base);
  const auto final_ext =
      core::ensemble_average(tuned_ext, aux_ext, unknown_ext, &w_ext);
  ctx.check_near(w_ext, w_base, kTol,
                 "w_U must be unchanged by zero-mass landmarks");
  for (std::size_t j = 0; j < m_base; ++j)
    ctx.check_near(final_ext[survivor_ext(j)], final_base[j], kTol,
                   "final survivor score, feature " + std::to_string(j));

  // Ranking restricted to surviving features is stable.
  const auto rank_base = ranking_of(final_base);
  const auto rank_ext = ranking_of(final_ext);
  std::vector<std::size_t> survivors_in_ext;
  std::vector<std::size_t> ext_to_base(m_ext, static_cast<std::size_t>(-1));
  for (std::size_t j = 0; j < m_base; ++j)
    ext_to_base[survivor_ext(j)] = j;
  for (std::size_t r = 0; r < rank_ext.size(); ++r)
    if (ext_to_base[rank_ext[r]] != static_cast<std::size_t>(-1))
      survivors_in_ext.push_back(ext_to_base[rank_ext[r]]);
  ctx.check(rankings_agree(rank_base, final_base, survivors_in_ext,
                           final_base, 1e-12),
            "survivor ranking must be unchanged by added landmarks");
}

void check_score_weighting(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;
  const netsim::Topology topo = netsim::default_topology();
  const data::FeatureSpace fs(topo);
  const std::size_t m = fs.total();

  const auto coarse = gen::distribution(rng, netsim::kFaultFamilies);
  const auto argmax = static_cast<std::size_t>(
      std::max_element(coarse.begin(), coarse.end()) - coarse.begin());
  const auto family = static_cast<data::FaultFamily>(argmax);
  const std::vector<std::size_t> p = fs.features_of_family(family);
  std::vector<bool> in_family(m, false);
  for (std::size_t j : p) in_family[j] = true;

  // Case 1: generic random attention.
  ctx.begin_case();
  const auto gamma = gen::distribution(rng, m);
  const auto tuned = core::weight_scores(gamma, coarse, argmax, fs);
  ctx.check_eq(tuned.size(), m, "tuned score count");
  double sum = 0.0;
  for (double t : tuned) {
    ctx.check(t >= 0.0, "tuned scores must be non-negative");
    sum += t;
  }
  ctx.check_near(sum, 1.0, kTol, "tuned scores must stay a distribution");
  // Within-group monotonicity: the bonus/penalty factor is uniform inside
  // each side of the family split, so order within a side is preserved.
  for (std::size_t trial = 0; trial < 32; ++trial) {
    const auto a = static_cast<std::size_t>(rng.uniform_index(m));
    const auto b = static_cast<std::size_t>(rng.uniform_index(m));
    if (a == b || in_family[a] != in_family[b]) continue;
    ctx.check((gamma[a] < gamma[b]) == (tuned[a] < tuned[b]),
              "within-group ordering must be preserved (" +
                  std::to_string(a) + " vs " + std::to_string(b) + ")");
  }
  // Algorithm 1 moves the family mass from s to exactly w = ŷ_c.
  double s = 0.0, w_mass = 0.0;
  for (std::size_t j : p) {
    s += gamma[j];
    w_mass += tuned[j];
  }
  if (s > 0.0 && s < 1.0)
    ctx.check_near(w_mass, coarse[argmax], kTol,
                   "family mass must be re-weighted to the coarse confidence");

  // Cases 2/3 need a family that actually owns features (Nominal has none)
  // and one that leaves at least one feature outside.
  if (p.empty() || p.size() == m) return;

  // Case 2: a point mass inside the family — s is exactly 1, identity.
  ctx.begin_case();
  std::vector<double> gamma_in(m, 0.0);
  gamma_in[p[static_cast<std::size_t>(rng.uniform_index(p.size()))]] = 1.0;
  const auto tuned_in = core::weight_scores(gamma_in, coarse, argmax, fs);
  for (std::size_t j = 0; j < m; ++j)
    ctx.check(tuned_in[j] == gamma_in[j],
              "s=1 must be the identity, feature " + std::to_string(j));

  // Case 3: a point mass outside the family — s is exactly 0, identity.
  ctx.begin_case();
  std::vector<double> gamma_out(m, 0.0);
  std::vector<std::size_t> outside;
  for (std::size_t j = 0; j < m; ++j)
    if (!in_family[j]) outside.push_back(j);
  gamma_out[outside[static_cast<std::size_t>(
      rng.uniform_index(outside.size()))]] = 1.0;
  const auto tuned_out = core::weight_scores(gamma_out, coarse, argmax, fs);
  for (std::size_t j = 0; j < m; ++j)
    ctx.check(tuned_out[j] == gamma_out[j],
              "s=0 must be the identity, feature " + std::to_string(j));
}

void check_ensemble_convexity(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;

  ctx.begin_case();
  const std::size_t m = gen::dim(rng, 8, 60);
  const auto tuned = gen::distribution(rng, m);
  const auto aux = gen::distribution(rng, m);
  std::vector<std::size_t> unknown;
  for (std::size_t j = 0; j < m; ++j)
    if (rng.bernoulli(0.3)) unknown.push_back(j);

  double w = -1.0;
  const auto blended = core::ensemble_average(tuned, aux, unknown, &w);
  ctx.check(w >= 0.0 && w <= 1.0, "w_U must lie in [0, 1]");
  double expected_w = 0.0;
  for (std::size_t j : unknown) expected_w += tuned[j];
  ctx.check_near(w, expected_w, kTol, "w_U must equal the unknown mass");

  double sum = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    ctx.check_near(blended[j], w * tuned[j] + (1.0 - w) * aux[j], kTol,
                   "blend must be the convex combination, cause " +
                       std::to_string(j));
    const double lo = std::min(tuned[j], aux[j]);
    const double hi = std::max(tuned[j], aux[j]);
    ctx.check(blended[j] >= lo - kTol && blended[j] <= hi + kTol,
              "blend must stay inside the convex hull, cause " +
                  std::to_string(j));
    sum += blended[j];
  }
  ctx.check_near(sum, 1.0, kTol, "blend must stay a distribution");

  // Degenerate case: nothing unknown — the auxiliary model decides alone.
  ctx.begin_case();
  double w_empty = -1.0;
  const auto pure_aux = core::ensemble_average(tuned, aux, {}, &w_empty);
  ctx.check(w_empty == 0.0, "empty unknown set must give w_U = 0");
  for (std::size_t j = 0; j < m; ++j)
    ctx.check(pure_aux[j] == aux[j],
              "empty unknown set must return the auxiliary scores");
}

}  // namespace diagnet::testkit
