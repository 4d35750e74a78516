#include "forest/decision_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/require.h"
#include "util/thread_pool.h"

namespace diagnet::forest {

namespace {

double gini(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double g = 1.0;
  for (double c : counts) {
    const double p = c / total;
    g -= p * p;
  }
  return g;
}

/// Screening margin of the Σc² impurity. It and gini() differ by rounding
/// only (~1e-15), so a candidate outside the margin cannot pass the exact
/// test, and one inside it is re-scored with gini().
constexpr double kScreenMargin = 1e-9;

}  // namespace

ColumnOrder::ColumnOrder(const Matrix& x)
    : rows_(x.rows()), values_(x.rows() * x.cols()), order_(x.cols()) {
  DIAGNET_REQUIRE(rows_ > 0 &&
                  rows_ <= std::numeric_limits<std::uint32_t>::max());
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t f = 0; f < x.cols(); ++f) {
      const float v = x(r, f);
      DIAGNET_REQUIRE_MSG(std::isfinite(v),
                          "non-finite value at row " + std::to_string(r) +
                              ", column " + std::to_string(f));
      values_[f * rows_ + r] = v;
    }
  util::parallel_for(x.cols(), [&](std::size_t f) {
    const float* col = column(f);
    // (value, row) pairs: sorting them orders ties by row, i.e. stably.
    std::vector<std::pair<float, std::uint32_t>> keyed(rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      keyed[r] = {col[r], static_cast<std::uint32_t>(r)};
    std::sort(keyed.begin(), keyed.end());
    if (keyed.front().first == keyed.back().first) return;  // constant
    order_[f].resize(rows_);
    for (std::size_t i = 0; i < rows_; ++i) order_[f][i] = keyed[i].second;
  });
}

/// Grows one tree depth-first, left child first. Every drawn row appears
/// once in each non-constant column's list, carrying its bootstrap
/// multiplicity as a weight; a node is one contiguous segment of every
/// list, sorted by that column's value, so the split search is a scan and
/// a split is a stable partition of each segment.
class TreeBuilder {
 public:
  TreeBuilder(DecisionTree& tree, const ColumnOrder& columns,
              const std::vector<std::size_t>& y,
              const std::vector<std::size_t>& rows, const TreeConfig& config,
              util::Rng& rng)
      : tree_(tree),
        columns_(columns),
        y_(y),
        config_(config),
        rng_(rng),
        weight_(columns.rows(), 0),
        goes_left_(columns.rows(), 0),
        offset_(columns.cols(), 0) {
    for (std::size_t r : rows) {
      DIAGNET_REQUIRE(r < columns.rows());
      DIAGNET_REQUIRE(y[r] < tree.classes_);
      ++weight_[r];
    }
    std::size_t searchable = 0;
    for (std::size_t r = 0; r < columns.rows(); ++r)
      unique_ += weight_[r] > 0 ? 1 : 0;
    for (std::size_t f = 0; f < columns.cols(); ++f)
      searchable += columns.constant(f) ? 0 : 1;
    // Branch-free filter: every row is written, and the cursor advances
    // past the drawn ones only. The last column's last write may land one
    // past its list, hence the spare slot.
    lists_.resize(searchable * unique_ + 1);
    std::size_t out = 0;
    for (std::size_t f = 0; f < columns.cols(); ++f) {
      if (columns.constant(f)) continue;
      offset_[f] = out;
      for (std::uint32_t r : columns.order(f)) {
        lists_[out] = r;
        out += weight_[r] > 0 ? 1 : 0;
      }
    }
    scratch_.resize(unique_);
  }

  void run(std::size_t bootstrap_size) {
    std::vector<double> counts(tree_.classes_, 0.0);
    for (std::size_t r = 0; r < columns_.rows(); ++r)
      counts[y_[r]] += weight_[r];
    build(0, unique_, counts, static_cast<double>(bootstrap_size), 0);
  }

 private:
  std::uint32_t* list(std::size_t f) {
    return lists_.data() + offset_[f];
  }

  /// Grows the node over segment [begin, end), whose weighted class
  /// counts sum to `total`; returns its index.
  std::int32_t build(std::size_t begin, std::size_t end,
                     const std::vector<double>& counts, double total,
                     std::size_t depth) {
    const std::size_t classes = tree_.classes_;
    const double node_gini = gini(counts, total);
    if (depth >= config_.max_depth ||
        total < static_cast<double>(config_.min_samples_split) ||
        node_gini == 0.0) {
      return add_leaf(counts, total);
    }

    // Candidate features: a random subset of size max_features.
    const std::size_t m = columns_.cols();
    std::size_t mtry = config_.max_features;
    if (mtry == 0)
      mtry = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::sqrt(static_cast<double>(m))));
    mtry = std::min(mtry, m);
    const std::vector<std::size_t> features =
        rng_.sample_without_replacement(m, mtry);

    // Best weighted-Gini split over the candidates. A running Σc² per side
    // screens each split point; only candidates near the acceptance bar
    // pay for the exact gini() that decides, as it always has.
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_impurity = node_gini;
    const auto min_leaf = static_cast<double>(config_.min_samples_leaf);
    double sum_sq = 0.0;
    for (double c : counts) sum_sq += c * c;
    std::vector<double> left(classes);
    std::vector<double> right(classes);
    for (std::size_t f : features) {
      if (columns_.constant(f)) continue;
      const std::uint32_t* rows = list(f);
      const float* col = columns_.column(f);
      if (col[rows[begin]] == col[rows[end - 1]]) continue;

      std::fill(left.begin(), left.end(), 0.0);
      right = counts;
      double left_sq = 0.0;
      double right_sq = sum_sq;
      double nl = 0.0;
      for (std::size_t i = begin; i + 1 < end; ++i) {
        const std::uint32_t r = rows[i];
        const double w = weight_[r];
        const std::size_t c = y_[r];
        left_sq += (2.0 * left[c] + w) * w;
        right_sq -= (2.0 * right[c] - w) * w;
        left[c] += w;
        right[c] -= w;
        nl += w;
        // Only split between distinct values.
        const float value = col[r];
        const float next = col[rows[i + 1]];
        if (value == next) continue;
        const double nr = total - nl;
        if (nl < min_leaf || nr < min_leaf) continue;
        const double bar = best_impurity - 1e-12;
        const double screen = (total - left_sq / nl - right_sq / nr) / total;
        if (screen >= bar + kScreenMargin) continue;
        const double impurity =
            (nl * gini(left, nl) + nr * gini(right, nr)) / total;
        if (impurity < bar) {
          best_impurity = impurity;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (static_cast<double>(value) +
                                  static_cast<double>(next));
        }
      }
    }

    if (best_feature < 0) return add_leaf(counts, total);

    // Route the node's rows and count each child's classes.
    const auto split = static_cast<std::size_t>(best_feature);
    const float* col = columns_.column(split);
    const std::uint32_t* rows = list(split);
    std::vector<double> left_counts(classes, 0.0);
    double left_total = 0.0;
    std::size_t left_unique = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = rows[i];
      const bool goes_left = col[r] < best_threshold;
      goes_left_[r] = goes_left ? 1 : 0;
      if (!goes_left) continue;
      left_counts[y_[r]] += weight_[r];
      left_total += weight_[r];
      ++left_unique;
    }
    DIAGNET_REQUIRE(left_total > 0.0 && left_total < total);
    std::vector<double> right_counts(classes);
    for (std::size_t c = 0; c < classes; ++c)
      right_counts[c] = counts[c] - left_counts[c];
    // Children at max_depth are leaves that never read the lists.
    if (depth + 1 < config_.max_depth) partition(begin, end);

    // Reserve our slot before recursing (the left child is self + 1).
    const auto self = static_cast<std::int32_t>(tree_.nodes_.size());
    tree_.nodes_.emplace_back();
    const std::size_t mid = begin + left_unique;
    build(begin, mid, left_counts, left_total, depth + 1);
    const std::int32_t right_child =
        build(mid, end, right_counts, total - left_total, depth + 1);
    DecisionTree::Node& node = tree_.nodes_[static_cast<std::size_t>(self)];
    node.feature = best_feature;
    node.threshold = best_threshold;
    node.next = right_child;
    return self;
  }

  /// Stable-partitions every list's segment [begin, end) by goes_left_.
  void partition(std::size_t begin, std::size_t end) {
    for (std::size_t f = 0; f < columns_.cols(); ++f) {
      if (columns_.constant(f)) continue;
      std::uint32_t* rows = list(f);
      // Branch-free: each row goes to both outputs, and only the one its
      // goes_left_ flag picks advances.
      std::size_t out = begin;
      std::size_t spilled = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t r = rows[i];
        const std::size_t left = goes_left_[r];
        rows[out] = r;
        scratch_[spilled] = r;
        out += left;
        spilled += 1 - left;
      }
      std::copy(scratch_.begin(), scratch_.begin() + spilled, rows + out);
    }
  }

  std::int32_t add_leaf(const std::vector<double>& counts, double total) {
    const auto self = static_cast<std::int32_t>(tree_.nodes_.size());
    tree_.nodes_.push_back(DecisionTree::leaf_node(self, tree_.proba_.size()));
    for (double c : counts) tree_.proba_.push_back(c / total);
    return self;
  }

  DecisionTree& tree_;
  const ColumnOrder& columns_;
  const std::vector<std::size_t>& y_;
  const TreeConfig& config_;
  util::Rng& rng_;
  std::vector<std::uint32_t> weight_;     // bootstrap multiplicity per row
  std::vector<std::uint8_t> goes_left_;   // per row, set by the last split
  std::vector<std::size_t> offset_;       // column -> its list in lists_
  std::vector<std::uint32_t> lists_;      // unique_ rows per searchable column
  std::vector<std::uint32_t> scratch_;
  std::size_t unique_ = 0;                // distinct rows drawn
};

void DecisionTree::fit(const Matrix& x, const std::vector<std::size_t>& y,
                       std::size_t classes,
                       const std::vector<std::size_t>& rows,
                       const TreeConfig& config, util::Rng& rng) {
  fit(ColumnOrder(x), y, classes, rows, config, rng);
}

void DecisionTree::fit(const ColumnOrder& columns,
                       const std::vector<std::size_t>& y, std::size_t classes,
                       const std::vector<std::size_t>& rows,
                       const TreeConfig& config, util::Rng& rng) {
  DIAGNET_REQUIRE(classes >= 2);
  DIAGNET_REQUIRE(y.size() == columns.rows());
  DIAGNET_REQUIRE(!rows.empty());
  classes_ = classes;
  nodes_.clear();
  proba_.clear();
  depth_ = 0;
  TreeBuilder(*this, columns, y, rows, config, rng).run(rows.size());
  measure_depth();
}

namespace {

// A quiet NaN; a leaf's threshold adds its distribution's offset as the
// payload (below 2^31, so it never reaches the quiet bit).
constexpr std::uint64_t kLeafNaN = 0x7ff8000000000000ULL;

}  // namespace

DecisionTree::Node DecisionTree::leaf_node(std::int32_t self,
                                           std::size_t offset) {
  Node leaf;
  leaf.next = self;
  leaf.threshold =
      std::bit_cast<double>(kLeafNaN | static_cast<std::uint64_t>(offset));
  return leaf;
}

const double* DecisionTree::leaf_distribution(const Node& leaf) const {
  return proba_.data() +
         (std::bit_cast<std::uint64_t>(leaf.threshold) & ~kLeafNaN);
}

const double* DecisionTree::leaf_proba(const double* sample) const {
  const DecisionTree* self = this;
  const double* leaf = nullptr;
  walk(&self, &sample, 1, &leaf);
  return leaf;
}

void DecisionTree::walk(const DecisionTree* const* trees,
                        const double* const* rows, std::size_t lanes,
                        const double** leaves) {
  DIAGNET_REQUIRE(lanes <= kWalkLanes);
  const Node* nodes[kWalkLanes];
  std::int32_t at[kWalkLanes];
  std::size_t sweeps = 0;
  for (std::size_t k = 0; k < lanes; ++k) {
    DIAGNET_REQUIRE_MSG(trees[k]->trained(), "predict on an unfitted tree");
    nodes[k] = trees[k]->nodes_.data();
    at[k] = 0;
    sweeps = std::max(sweeps, trees[k]->depth_ - 1);
  }
  // A sweep moves every lane to idx + 1 when x[f] < threshold and to
  // `next` otherwise (a NaN goes right); the mask is all ones or all
  // zeros. A lane at a leaf stays there, so after its deepest tree's
  // levels every lane is at a leaf. A lane's next node is read a whole
  // sweep later, past the reorder window, so it is prefetched now: the
  // forest is cold after the network's passes.
  for (std::size_t s = 0; s < sweeps; ++s) {
    for (std::size_t k = 0; k < lanes; ++k) {
      const Node& node = nodes[k][at[k]];
      const std::int32_t left =
          -static_cast<std::int32_t>(rows[k][node.feature] < node.threshold);
      at[k] = (left & (at[k] + 1)) | (~left & node.next);
      __builtin_prefetch(nodes[k] + at[k]);
    }
  }
  for (std::size_t k = 0; k < lanes; ++k) {
    leaves[k] = trees[k]->leaf_distribution(nodes[k][at[k]]);
    __builtin_prefetch(leaves[k]);
    __builtin_prefetch(leaves[k] + trees[k]->classes_ - 1);
  }
}

void DecisionTree::measure_depth() {
  // One pass in index order: children lie after their parent, so a node's
  // level is final before its children are visited. Taking the longest
  // path keeps this linear even when load() accepts a node with two
  // parents; a node no path reaches keeps level 0.
  std::vector<std::size_t> level(nodes_.size(), 0);
  level[0] = 1;
  depth_ = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (level[i] == 0) continue;
    depth_ = std::max(depth_, level[i]);
    if (is_leaf(i)) continue;
    const std::size_t right = static_cast<std::size_t>(nodes_[i].next);
    level[i + 1] = std::max(level[i + 1], level[i] + 1);
    level[right] = std::max(level[right], level[i] + 1);
  }
}

std::size_t DecisionTree::feature_bound() const {
  std::size_t bound = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!is_leaf(i))
      bound = std::max(bound, static_cast<std::size_t>(nodes_[i].feature) + 1);
  return bound;
}

}  // namespace diagnet::forest

namespace diagnet::forest {

namespace {

void write_i64(util::BinaryWriter& writer, std::int64_t value) {
  writer.write_u64(static_cast<std::uint64_t>(value));
}

std::int64_t read_i64(util::BinaryReader& reader) {
  return static_cast<std::int64_t>(reader.read_u64());
}

[[noreturn]] void corrupt_tree(std::uint64_t node, const std::string& what) {
  throw std::runtime_error("DecisionTree: node " + std::to_string(node) +
                           ": " + what);
}

}  // namespace

void DecisionTree::save(util::BinaryWriter& writer) const {
  writer.write_u64(0xd7ee0001ULL);
  writer.write_u64(classes_);
  writer.write_u64(nodes_.size());
  const std::vector<double> none;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    const bool leaf = is_leaf(i);
    write_i64(writer, leaf ? -1 : node.feature);
    writer.write_double(leaf ? 0.0 : node.threshold);
    write_i64(writer, leaf ? -1 : static_cast<std::int64_t>(i) + 1);
    write_i64(writer, leaf ? -1 : node.next);
    if (leaf) {
      const double* p = leaf_distribution(node);
      writer.write_doubles(std::vector<double>(p, p + classes_));
    } else {
      writer.write_doubles(none);
    }
  }
}

void DecisionTree::load(util::BinaryReader& reader) {
  reader.expect_u64(0xd7ee0001ULL, "DecisionTree");
  classes_ = static_cast<std::size_t>(reader.read_u64());
  const std::uint64_t count = reader.read_u64();
  if (count == 0 ||
      count > static_cast<std::uint64_t>(
                  std::numeric_limits<std::int32_t>::max()))
    throw std::runtime_error("DecisionTree: implausible node count");
  nodes_.clear();
  proba_.clear();
  depth_ = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t feature = read_i64(reader);
    const double threshold = reader.read_double();
    const std::int64_t left = read_i64(reader);
    const std::int64_t right = read_i64(reader);
    const std::vector<double> proba = reader.read_doubles();
    Node node;
    if (feature == -1) {
      if (left != -1 || right != -1) corrupt_tree(i, "leaf with children");
      if (proba.size() != classes_)
        corrupt_tree(i, "leaf distribution of the wrong length");
      for (double p : proba)
        if (!std::isfinite(p)) corrupt_tree(i, "non-finite leaf value");
      if (proba_.size() + proba.size() >
          static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
        corrupt_tree(i, "implausible leaf pool size");
      node = leaf_node(static_cast<std::int32_t>(i), proba_.size());
      proba_.insert(proba_.end(), proba.begin(), proba.end());
    } else {
      // Preorder: the left child follows its parent, the right child lies
      // beyond it inside the tree, so every walk ends at a leaf.
      const auto self = static_cast<std::int64_t>(i);
      if (feature < 0 || feature > std::numeric_limits<std::int32_t>::max())
        corrupt_tree(i, "invalid split feature");
      if (left != self + 1) corrupt_tree(i, "left child is not self + 1");
      if (right <= self || right >= static_cast<std::int64_t>(count))
        corrupt_tree(i, "right child out of range");
      if (!proba.empty()) corrupt_tree(i, "internal node with a leaf value");
      node.feature = static_cast<std::int32_t>(feature);
      node.threshold = threshold;
      node.next = static_cast<std::int32_t>(right);
    }
    nodes_.push_back(node);
  }
  measure_depth();
}

}  // namespace diagnet::forest
