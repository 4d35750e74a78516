// Bagged ensemble of CART trees. The design matrix is sorted once per
// forest (ColumnOrder) and trees are trained in parallel over it; every
// tree derives its bootstrap and split randomness from fork(tree_index), so
// the fitted forest is identical regardless of thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "forest/decision_tree.h"

namespace diagnet::forest {

struct ForestConfig {
  std::size_t n_estimators = 50;
  TreeConfig tree;
};

class RandomForest {
 public:
  /// Fit on all rows of X; labels in [0, classes).
  void fit(const Matrix& x, const std::vector<std::size_t>& y,
           std::size_t classes, const ForestConfig& config,
           std::uint64_t seed);

  /// Mean of per-tree leaf distributions (sums to 1): the one-row call of
  /// predict_proba_rows.
  std::vector<double> predict_proba(const double* sample) const;
  std::vector<double> predict_proba(const std::vector<double>& sample) const;

  /// predict_proba of the n rows of x (row r starts at x + r * width) into
  /// out, n x classes(). The (tree, row) pairs walk as lanes, tree-major,
  /// in blocks of DecisionTree::kWalkLanes; each row then adds its trees'
  /// leaf distributions in ascending tree order, as predict_proba did, so
  /// the result does not depend on n.
  void predict_proba_rows(const double* x, std::size_t n, std::size_t width,
                          double* out) const;

  /// argmax of predict_proba.
  std::size_t predict(const double* sample) const;

  std::size_t classes() const { return classes_; }
  std::size_t tree_count() const { return trees_.size(); }
  bool trained() const { return !trees_.empty(); }
  /// One past the largest split feature of any tree.
  std::size_t feature_bound() const;

  void save(util::BinaryWriter& writer) const;
  /// load() rejects a forest whose trees disagree with its class count.
  void load(util::BinaryReader& reader);

 private:
  std::vector<DecisionTree> trees_;
  std::size_t classes_ = 0;
};

}  // namespace diagnet::forest
