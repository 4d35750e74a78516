#include "testkit/forest_oracle.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "util/binary_io.h"
#include "util/require.h"

namespace diagnet::testkit {

namespace oracle {

namespace {

struct Node {
  // Internal node: split on feature < threshold -> left, else right.
  // Leaf: feature == -1, proba holds the class distribution.
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  std::vector<double> proba;
};

double gini(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double g = 1.0;
  for (double c : counts) {
    const double p = c / total;
    g -= p * p;
  }
  return g;
}

int build(const tensor::Matrix& x, const std::vector<std::size_t>& y,
          std::size_t classes, std::vector<std::size_t>& rows,
          std::size_t depth, const forest::TreeConfig& config, util::Rng& rng,
          std::vector<Node>& nodes) {
  // Class histogram of this node.
  std::vector<double> counts(classes, 0.0);
  for (std::size_t r : rows) {
    DIAGNET_REQUIRE(y[r] < classes);
    counts[y[r]] += 1.0;
  }
  const auto total = static_cast<double>(rows.size());

  const auto make_leaf = [&]() -> int {
    Node leaf;
    leaf.proba.resize(classes);
    for (std::size_t c = 0; c < classes; ++c) leaf.proba[c] = counts[c] / total;
    nodes.push_back(std::move(leaf));
    return static_cast<int>(nodes.size() - 1);
  };

  const double node_gini = gini(counts, total);
  if (depth >= config.max_depth || rows.size() < config.min_samples_split ||
      node_gini == 0.0) {
    return make_leaf();
  }

  // Candidate features: a random subset of size max_features.
  const std::size_t m = x.cols();
  std::size_t mtry = config.max_features;
  if (mtry == 0)
    mtry = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(m))));
  mtry = std::min(mtry, m);
  const std::vector<std::size_t> features =
      rng.sample_without_replacement(m, mtry);

  // Best weighted-Gini split over candidate features.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_impurity = node_gini;

  std::vector<std::pair<double, std::size_t>> sorted;  // (value, label)
  for (std::size_t f : features) {
    sorted.clear();
    sorted.reserve(rows.size());
    for (std::size_t r : rows) sorted.emplace_back(x(r, f), y[r]);
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;

    std::vector<double> left_counts(classes, 0.0);
    std::vector<double> right_counts = counts;
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      left_counts[sorted[i].second] += 1.0;
      right_counts[sorted[i].second] -= 1.0;
      // Only split between distinct values.
      if (sorted[i].first == sorted[i + 1].first) continue;
      const double nl = static_cast<double>(i + 1);
      const double nr = total - nl;
      if (nl < config.min_samples_leaf || nr < config.min_samples_leaf)
        continue;
      const double impurity =
          (nl * gini(left_counts, nl) + nr * gini(right_counts, nr)) / total;
      if (impurity < best_impurity - 1e-12) {
        best_impurity = impurity;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  std::vector<std::size_t> left_rows;
  std::vector<std::size_t> right_rows;
  for (std::size_t r : rows) {
    if (x(r, static_cast<std::size_t>(best_feature)) < best_threshold)
      left_rows.push_back(r);
    else
      right_rows.push_back(r);
  }
  DIAGNET_REQUIRE(!left_rows.empty() && !right_rows.empty());

  // Reserve our slot before recursing (children get later indices).
  nodes.emplace_back();
  const auto self = static_cast<int>(nodes.size() - 1);
  const int left =
      build(x, y, classes, left_rows, depth + 1, config, rng, nodes);
  const int right =
      build(x, y, classes, right_rows, depth + 1, config, rng, nodes);
  nodes[self].feature = best_feature;
  nodes[self].threshold = best_threshold;
  nodes[self].left = left;
  nodes[self].right = right;
  return self;
}

void write_tree(util::BinaryWriter& writer, const tensor::Matrix& x,
                const std::vector<std::size_t>& y, std::size_t classes,
                const std::vector<std::size_t>& rows,
                const forest::TreeConfig& config, util::Rng& rng) {
  std::vector<Node> nodes;
  std::vector<std::size_t> work = rows;
  build(x, y, classes, work, 0, config, rng, nodes);
  const auto i64 = [&](int v) {
    writer.write_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  };
  writer.write_u64(0xd7ee0001ULL);
  writer.write_u64(classes);
  writer.write_u64(nodes.size());
  for (const Node& node : nodes) {
    i64(node.feature);
    writer.write_double(node.threshold);
    i64(node.left);
    i64(node.right);
    writer.write_doubles(node.proba);
  }
}

}  // namespace

std::string reference_tree_bytes(const tensor::Matrix& x,
                                 const std::vector<std::size_t>& y,
                                 std::size_t classes,
                                 const std::vector<std::size_t>& rows,
                                 const forest::TreeConfig& config,
                                 util::Rng& rng) {
  std::ostringstream os(std::ios::binary);
  util::BinaryWriter writer(os);
  write_tree(writer, x, y, classes, rows, config, rng);
  return os.str();
}

std::string reference_forest_bytes(const tensor::Matrix& x,
                                   const std::vector<std::size_t>& y,
                                   std::size_t classes,
                                   const forest::ForestConfig& config,
                                   std::uint64_t seed) {
  std::ostringstream os(std::ios::binary);
  util::BinaryWriter writer(os);
  writer.write_u64(0xf03e5700ULL);
  writer.write_u64(classes);
  writer.write_u64(config.n_estimators);
  const util::Rng root(seed);
  const std::size_t n = x.rows();
  for (std::size_t t = 0; t < config.n_estimators; ++t) {
    util::Rng rng = root.fork(t);
    std::vector<std::size_t> rows(n);
    for (auto& r : rows) r = static_cast<std::size_t>(rng.uniform_index(n));
    write_tree(writer, x, y, classes, rows, config.tree, rng);
  }
  return os.str();
}

}  // namespace oracle

namespace {

template <typename Model>
std::string bytes_of(const Model& model) {
  std::ostringstream os(std::ios::binary);
  util::BinaryWriter writer(os);
  model.save(writer);
  return os.str();
}

/// save(load(bytes)) for a tree or forest.
template <typename Model>
std::string reloaded(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  util::BinaryReader reader(is);
  Model model;
  model.load(reader);
  return bytes_of(model);
}

/// An n x m design matrix whose columns are, at random, continuous, tied
/// (a few distinct values), all zero, or constant.
tensor::Matrix design(util::Rng& rng, std::size_t n, std::size_t m) {
  tensor::Matrix x(n, m);
  for (std::size_t f = 0; f < m; ++f) {
    const std::size_t kind = rng.uniform_index(4);
    const double level = rng.normal();
    const std::size_t distinct = 2 + rng.uniform_index(3);
    for (std::size_t i = 0; i < n; ++i) {
      double v = 0.0;
      if (kind == 0) v = rng.normal();
      if (kind == 1)
        v = 0.5 * static_cast<double>(rng.uniform_index(distinct));
      if (kind == 3) v = level;
      x(i, f) = static_cast<float>(v);
    }
  }
  return x;
}

forest::TreeConfig tree_config(util::Rng& rng, std::size_t m) {
  forest::TreeConfig config;
  config.max_depth = 1 + rng.uniform_index(10);
  config.min_samples_split = 2 + rng.uniform_index(3);
  config.min_samples_leaf = rng.uniform_index(2) == 0 ? 1 : 3;
  const std::size_t mtry[3] = {0, 1, m};
  config.max_features = mtry[rng.uniform_index(3)];
  return config;
}

}  // namespace

void check_forest_fit(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;
  for (std::size_t k = 0; k < 5; ++k) {
    ctx.begin_case();
    const std::size_t n = 2 + rng.uniform_index(k == 0 ? 300 : 60);
    const std::size_t m = 1 + rng.uniform_index(10);
    const std::size_t classes = 2 + rng.uniform_index(15);
    const tensor::Matrix x = design(rng, n, m);
    // Half the cases draw from two classes only, so pure nodes occur.
    const std::size_t drawn = rng.uniform_index(2) == 0 ? 2 : classes;
    std::vector<std::size_t> y(n);
    for (auto& label : y) label = rng.uniform_index(drawn);
    const forest::TreeConfig config = tree_config(rng, m);
    const std::string shape = " (n=" + std::to_string(n) +
                              " m=" + std::to_string(m) +
                              " classes=" + std::to_string(classes) + ")";

    if (k + 1 < 5) {
      // One tree over a bootstrap of any size: rows repeat.
      std::vector<std::size_t> rows(1 + rng.uniform_index(2 * n));
      for (auto& r : rows) r = rng.uniform_index(n);
      const std::uint64_t seed = rng.next_u64();
      util::Rng fit_rng(seed);
      util::Rng ref_rng(seed);
      forest::DecisionTree tree;
      tree.fit(x, y, classes, rows, config, fit_rng);
      const std::string got = bytes_of(tree);
      ctx.check(got == oracle::reference_tree_bytes(x, y, classes, rows,
                                                    config, ref_rng),
                "tree bytes differ from the reference fit" + shape);
      ctx.check(fit_rng.next_u64() == ref_rng.next_u64(),
                "tree fit consumed the rng differently" + shape);
      ctx.check(reloaded<forest::DecisionTree>(got) == got,
                "tree save(load(bytes)) differs" + shape);
    } else {
      forest::ForestConfig forest_config;
      forest_config.n_estimators = 1 + rng.uniform_index(4);
      forest_config.tree = config;
      const std::uint64_t seed = rng.next_u64();
      forest::RandomForest forest;
      forest.fit(x, y, classes, forest_config, seed);
      const std::string got = bytes_of(forest);
      ctx.check(got == oracle::reference_forest_bytes(x, y, classes,
                                                      forest_config, seed),
                "forest bytes differ from the reference fit" + shape);
      ctx.check(reloaded<forest::RandomForest>(got) == got,
                "forest save(load(bytes)) differs" + shape);
    }
  }
}

}  // namespace diagnet::testkit
