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
  /// `classes()` values owned by the tree. The one-lane call of walk().
  const double* leaf_proba(const double* sample) const;

  /// Lanes walk() moves together: enough independent node loads to
  /// overlap their cache misses, few enough to keep the lane state in L1.
  static constexpr std::size_t kWalkLanes = 64;

  /// Walks `lanes` (tree, row) pairs, at most kWalkLanes, to their leaves
  /// in lockstep: leaves[k] = trees[k]->leaf_proba(rows[k]). Every sweep
  /// moves each lane one level down without a branch on the data, and the
  /// walk runs as many sweeps as its deepest tree has levels below the
  /// root, measured when the tree was fitted or loaded: it assumes no
  /// depth. Each row must hold at least one value.
  static void walk(const DecisionTree* const* trees,
                   const double* const* rows, std::size_t lanes,
                   const double** leaves);

  std::size_t node_count() const { return nodes_.size(); }
  /// Levels of the tree, counting the root's (1 for a lone leaf).
  std::size_t depth() const { return depth_; }
  std::size_t classes() const { return classes_; }
  /// Set once a fit or load completes.
  bool trained() const { return depth_ != 0; }
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
  // A leaf is a node the walk cannot leave: it splits on feature 0 at a
  // quiet-NaN threshold (x < NaN is false for every x) and its `next` is
  // its own index. The NaN's payload is the offset of its class
  // distribution in proba_.
  struct Node {
    std::int32_t feature = 0;  // split on feature < threshold
    std::int32_t next = 0;     // index of the right child; a leaf's own
    double threshold = 0.0;
  };

  /// The leaf at index `self` whose distribution starts at proba_[offset].
  static Node leaf_node(std::int32_t self, std::size_t offset);
  bool is_leaf(std::size_t i) const {
    return static_cast<std::size_t>(nodes_[i].next) == i;
  }
  const double* leaf_distribution(const Node& leaf) const;
  /// Sets depth_ from the nodes; fit and load end with it.
  void measure_depth();

  std::vector<Node> nodes_;
  std::vector<double> proba_;  // every leaf's distribution, in preorder
  std::size_t classes_ = 0;
  std::size_t depth_ = 0;  // 0 until a fit or load completes
};

}  // namespace diagnet::forest
