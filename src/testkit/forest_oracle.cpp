#include "testkit/forest_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "forest/extensible_forest.h"
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

namespace {

struct ParsedNode {
  std::int64_t feature = -1;
  double threshold = 0.0;
  std::int64_t left = -1;
  std::int64_t right = -1;
  std::vector<double> proba;
};

/// An ExtensibleForest as ExtensibleForest::save writes it.
struct ParsedForest {
  std::size_t total_causes = 0;
  std::vector<std::size_t> causes;
  std::size_t classes = 0;
  std::vector<std::vector<ParsedNode>> trees;
};

ParsedForest parse_forest(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  util::BinaryReader reader(is);
  const auto i64 = [&] { return static_cast<std::int64_t>(reader.read_u64()); };
  ParsedForest forest;
  reader.expect_u64(0xe47e4500ULL, "ExtensibleForest");
  forest.total_causes = static_cast<std::size_t>(reader.read_u64());
  forest.causes = reader.read_indices();
  reader.expect_u64(0xf03e5700ULL, "RandomForest");
  forest.classes = static_cast<std::size_t>(reader.read_u64());
  forest.trees.resize(static_cast<std::size_t>(reader.read_u64()));
  for (std::vector<ParsedNode>& tree : forest.trees) {
    reader.expect_u64(0xd7ee0001ULL, "DecisionTree");
    reader.read_u64();  // the forest's class count again
    tree.resize(static_cast<std::size_t>(reader.read_u64()));
    for (ParsedNode& node : tree) {
      node.feature = i64();
      node.threshold = reader.read_double();
      node.left = i64();
      node.right = i64();
      node.proba = reader.read_doubles();
    }
  }
  return forest;
}

}  // namespace

std::vector<double> reference_forest_scores(const std::string& forest_bytes,
                                            const double* x, std::size_t n,
                                            std::size_t width) {
  const ParsedForest forest = parse_forest(forest_bytes);
  const std::size_t causes = forest.total_causes;
  std::vector<double> out(n * causes);
  for (std::size_t r = 0; r < n; ++r) {
    const double* row = x + r * width;
    std::vector<double> proba(forest.classes, 0.0);
    for (const std::vector<ParsedNode>& tree : forest.trees) {
      std::size_t idx = 0;
      while (tree[idx].feature >= 0) {
        const ParsedNode& node = tree[idx];
        if (row[node.feature] < node.threshold)
          idx = static_cast<std::size_t>(node.left);
        else
          idx = static_cast<std::size_t>(node.right);
      }
      for (std::size_t c = 0; c < forest.classes; ++c)
        proba[c] += tree[idx].proba[c];
    }
    const double inv = 1.0 / static_cast<double>(forest.trees.size());
    for (double& p : proba) p *= inv;
    double* scores = out.data() + r * causes;
    std::fill(scores, scores + causes,
              proba.back() / static_cast<double>(causes));
    for (std::size_t c = 0; c < forest.causes.size(); ++c)
      scores[forest.causes[c]] += proba[c];
  }
  return out;
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

void check_forest_score(CaseContext& ctx) {
  util::Rng& rng = ctx.rng;
  // One extensible forest per iteration: causes 0..total-1 plus nominal
  // rows, fitted with the fit suite's designs and tree settings.
  const std::size_t n = 2 + rng.uniform_index(200);
  const std::size_t m = 1 + rng.uniform_index(10);
  const std::size_t total = 1 + rng.uniform_index(12);
  const tensor::Matrix x = design(rng, n, m);
  std::vector<std::size_t> y(n);
  for (auto& label : y)
    label = rng.uniform_index(3) == 0 ? forest::ExtensibleForest::kNominal
                                      : rng.uniform_index(total);
  y[0] = rng.uniform_index(total);  // at least one faulty row
  forest::ForestConfig config;
  config.n_estimators = 1 + rng.uniform_index(60);
  config.tree = tree_config(rng, m);
  forest::ExtensibleForest model;
  model.fit(x, y, total, config, rng.next_u64());
  const std::string bytes = bytes_of(model);

  // Every split threshold, by feature: a query equal to one is a tie,
  // which goes right.
  std::vector<std::vector<double>> thresholds(m);
  for (const auto& tree : oracle::parse_forest(bytes).trees)
    for (const auto& node : tree)
      if (node.feature >= 0)
        thresholds[static_cast<std::size_t>(node.feature)].push_back(
            node.threshold);

  const auto query = [&](std::size_t f) -> double {
    switch (rng.uniform_index(6)) {
      case 0:
        return x(rng.uniform_index(n), f);
      case 1:
        if (!thresholds[f].empty())
          return thresholds[f][rng.uniform_index(thresholds[f].size())];
        return x(rng.uniform_index(n), f);
      case 2:
        return 0.0;
      case 3:
        return -0.0;
      case 4: {
        const double far =
            std::ldexp(1.0, 20 + static_cast<int>(rng.uniform_index(1000)));
        return rng.uniform_index(2) == 0 ? far : -far;
      }
      default:
        return 2.0 * rng.normal();
    }
  };

  // A chunk of one, then chunks whose lane blocks end partial and whose
  // trees' lanes straddle two blocks.
  const std::size_t sizes[3] = {1 + rng.uniform_index(4),
                                1 + rng.uniform_index(130),
                                65 + rng.uniform_index(66)};
  for (const std::size_t rows : sizes) {
    ctx.begin_case();
    // Padding past column m is NaN: a wrong stride shows.
    const std::size_t width = m + rng.uniform_index(3);
    std::vector<double> q(rows * width, std::nan(""));
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t f = 0; f < m; ++f) q[r * width + f] = query(f);

    std::vector<double> got(rows * total);
    model.score_rows(q.data(), rows, width, got.data());
    const std::vector<double> want =
        oracle::reference_forest_scores(bytes, q.data(), rows, width);
    const std::string shape =
        " (rows=" + std::to_string(rows) + " trees=" +
        std::to_string(config.n_estimators) + " m=" + std::to_string(m) +
        " causes=" + std::to_string(total) + ")";
    std::size_t chunk_bad = rows, alone_bad = rows;
    for (std::size_t r = rows; r-- > 0;) {
      const double* expect = want.data() + r * total;
      if (std::memcmp(got.data() + r * total, expect,
                      total * sizeof(double)) != 0)
        chunk_bad = r;
      const std::vector<double> alone = model.score_causes(q.data() + r * width);
      if (std::memcmp(alone.data(), expect, total * sizeof(double)) != 0)
        alone_bad = r;
    }
    ctx.check(chunk_bad == rows,
              "chunk row " + std::to_string(chunk_bad) +
                  " differs from the reference walk" + shape);
    ctx.check(alone_bad == rows,
              "score_causes of row " + std::to_string(alone_bad) +
                  " differs from the reference walk" + shape);
  }
}

}  // namespace diagnet::testkit
