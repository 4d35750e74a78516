#include "forest/random_forest.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/require.h"
#include "util/thread_pool.h"

namespace diagnet::forest {

void RandomForest::fit(const Matrix& x, const std::vector<std::size_t>& y,
                       std::size_t classes, const ForestConfig& config,
                       std::uint64_t seed) {
  DIAGNET_REQUIRE(config.n_estimators > 0);
  DIAGNET_REQUIRE(x.rows() > 0 && y.size() == x.rows());
  classes_ = classes;
  trees_.assign(config.n_estimators, DecisionTree{});

  // Sorted once here, shared read-only by every tree.
  const ColumnOrder columns(x);
  const util::Rng root(seed);
  const std::size_t n = x.rows();
  util::parallel_for(config.n_estimators, [&](std::size_t t) {
    util::Rng rng = root.fork(t);
    // Bootstrap sample: n draws with replacement.
    std::vector<std::size_t> rows(n);
    for (auto& r : rows) r = static_cast<std::size_t>(rng.uniform_index(n));
    trees_[t].fit(columns, y, classes, rows, config.tree, rng);
  });
}

std::vector<double> RandomForest::predict_proba(const double* sample) const {
  std::vector<double> proba(classes_);
  predict_proba_rows(sample, 1, 0, proba.data());
  return proba;
}

void RandomForest::predict_proba_rows(const double* x, std::size_t n,
                                      std::size_t width, double* out) const {
  DIAGNET_REQUIRE_MSG(trained(), "predict on an unfitted forest");
  // Lane k is tree k / n and row k % n.
  const std::size_t lanes = trees_.size() * n;
  std::vector<const double*> leaves(lanes);
  const DecisionTree* tree[DecisionTree::kWalkLanes];
  const double* row[DecisionTree::kWalkLanes];
  std::size_t t = 0, r = 0;
  for (std::size_t begin = 0; begin < lanes;
       begin += DecisionTree::kWalkLanes) {
    const std::size_t block =
        std::min(DecisionTree::kWalkLanes, lanes - begin);
    for (std::size_t k = 0; k < block; ++k) {
      tree[k] = &trees_[t];
      row[k] = x + r * width;
      if (++r == n) {
        r = 0;
        ++t;
      }
    }
    DecisionTree::walk(tree, row, block, leaves.data() + begin);
  }

  // Each row adds its trees' leaves from 0 in ascending tree order.
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (std::size_t i = 0; i < n; ++i) {
    double* proba = out + i * classes_;
    std::fill(proba, proba + classes_, 0.0);
    for (std::size_t j = 0; j < trees_.size(); ++j) {
      const double* p = leaves[j * n + i];
      for (std::size_t c = 0; c < classes_; ++c) proba[c] += p[c];
    }
    for (std::size_t c = 0; c < classes_; ++c) proba[c] *= inv;
  }
}

std::vector<double> RandomForest::predict_proba(
    const std::vector<double>& sample) const {
  return predict_proba(sample.data());
}

std::size_t RandomForest::predict(const double* sample) const {
  const std::vector<double> p = predict_proba(sample);
  return static_cast<std::size_t>(
      std::max_element(p.begin(), p.end()) - p.begin());
}

}  // namespace diagnet::forest

namespace diagnet::forest {

void RandomForest::save(util::BinaryWriter& writer) const {
  writer.write_u64(0xf03e5700ULL);
  writer.write_u64(classes_);
  writer.write_u64(trees_.size());
  for (const DecisionTree& tree : trees_) tree.save(writer);
}

void RandomForest::load(util::BinaryReader& reader) {
  reader.expect_u64(0xf03e5700ULL, "RandomForest");
  classes_ = static_cast<std::size_t>(reader.read_u64());
  const std::uint64_t count = reader.read_u64();
  if (classes_ < 2 || count == 0)
    throw std::runtime_error("RandomForest: implausible shape");
  // Grown tree by tree, so a forged count runs out of bytes, not memory.
  trees_.clear();
  for (std::uint64_t t = 0; t < count; ++t) {
    DecisionTree tree;
    tree.load(reader);
    if (tree.classes() != classes_)
      throw std::runtime_error("RandomForest: tree class count differs");
    trees_.push_back(std::move(tree));
  }
}

std::size_t RandomForest::feature_bound() const {
  std::size_t bound = 0;
  for (const DecisionTree& tree : trees_)
    bound = std::max(bound, tree.feature_bound());
  return bound;
}

}  // namespace diagnet::forest
