// CART classification tree with the Gini impurity criterion — the building
// block of the Random-Forest auxiliary model (paper Table I: Gini, 50
// estimators, max depth 10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/matrix.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace diagnet::forest {

using tensor::Matrix;

struct TreeConfig {
  std::size_t max_depth = 10;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Features considered per split; 0 selects floor(sqrt(m)) (the usual
  /// random-forest default).
  std::size_t max_features = 0;
};

/// What every tree of a forest shares read-only while it fits: X copied
/// column-major, and each column's rows stably sorted by value (ties in
/// row order). A column constant over all rows can never split a node, so
/// it has no order. X must be finite: a NaN has no place in a sort.
class ColumnOrder {
 public:
  explicit ColumnOrder(const Matrix& x);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return order_.size(); }
  const float* column(std::size_t f) const {
    return values_.data() + f * rows_;
  }
  /// Rows ascending by column f's value; empty when f is constant.
  const std::vector<std::uint32_t>& order(std::size_t f) const {
    return order_[f];
  }
  bool constant(std::size_t f) const { return order_[f].empty(); }

 private:
  std::size_t rows_ = 0;
  std::vector<float> values_;
  std::vector<std::vector<std::uint32_t>> order_;
};

class DecisionTree {
 public:
  /// Fit on the rows of X listed in `rows` (bootstrap indices may repeat).
  /// y holds integer class labels in [0, classes).
  void fit(const Matrix& x, const std::vector<std::size_t>& y,
           std::size_t classes, const std::vector<std::size_t>& rows,
           const TreeConfig& config, util::Rng& rng);
  /// The same fit over a column order built once for many trees.
  void fit(const ColumnOrder& columns, const std::vector<std::size_t>& y,
           std::size_t classes, const std::vector<std::size_t>& rows,
           const TreeConfig& config, util::Rng& rng);

  /// Class distribution at the leaf reached by `sample` (sums to 1):
  /// `classes()` values owned by the tree.
  const double* leaf_proba(const double* sample) const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;
  std::size_t classes() const { return classes_; }
  bool trained() const { return !nodes_.empty(); }
  /// One past the largest split feature; 0 when the tree is one leaf.
  std::size_t feature_bound() const;

  /// Binary (de)serialisation of the fitted structure. load() rejects a
  /// tree that is not in preorder, whose child indices leave the tree, or
  /// whose leaves do not hold `classes` finite values.
  void save(util::BinaryWriter& writer) const;
  void load(util::BinaryReader& reader);

 private:
  friend class TreeBuilder;

  // Nodes in preorder: an internal node's left child is the next node.
  struct Node {
    std::int32_t feature = -1;  // split on feature < threshold; -1: leaf
    // Internal node: index of the right child. Leaf: offset of its class
    // distribution in proba_.
    std::int32_t next = -1;
    double threshold = 0.0;
  };

  std::vector<Node> nodes_;
  std::vector<double> proba_;  // every leaf's distribution, in preorder
  std::size_t classes_ = 0;
};

}  // namespace diagnet::forest
