// Reference fit for the CART forest: the obvious builder that re-sorts
// (value, label) pairs for every candidate feature at every node and scores
// each split point with a full Gini pass. It is the specification the
// presorted production builder (src/forest/decision_tree.cpp) must match
// byte for byte, RNG consumption included.
//
// Reference scoring: every tree walked alone, one branch per node, and the
// leaf distributions added in ascending tree order. It is the
// specification the lockstep lane walk (forest::DecisionTree::walk under
// ExtensibleForest::score_rows) must match bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "forest/random_forest.h"
#include "tensor/matrix.h"
#include "testkit/harness.h"
#include "util/rng.h"

namespace diagnet::testkit {

namespace oracle {

/// The bytes forest::DecisionTree::save writes after
/// DecisionTree::fit(x, y, classes, rows, config, rng); draws from `rng`
/// exactly as that fit does.
std::string reference_tree_bytes(const tensor::Matrix& x,
                                 const std::vector<std::size_t>& y,
                                 std::size_t classes,
                                 const std::vector<std::size_t>& rows,
                                 const forest::TreeConfig& config,
                                 util::Rng& rng);

/// The bytes forest::RandomForest::save writes after
/// RandomForest::fit(x, y, classes, config, seed), trees fitted in order.
std::string reference_forest_bytes(const tensor::Matrix& x,
                                   const std::vector<std::size_t>& y,
                                   std::size_t classes,
                                   const forest::ForestConfig& config,
                                   std::uint64_t seed);

/// ExtensibleForest::score_causes of each of the n rows of x (row r starts
/// at x + r * width) for the forest whose ExtensibleForest::save bytes are
/// `forest_bytes`, into n x total_causes values: per tree a branchy walk
/// (x[f] < threshold goes left), the leaves summed in ascending tree order
/// from 0 and scaled by 1 / trees, then the unknown class's mass spread
/// over every cause.
std::vector<double> reference_forest_scores(const std::string& forest_bytes,
                                            const double* x, std::size_t n,
                                            std::size_t width);

}  // namespace oracle

/// DecisionTree and RandomForest fits against the reference on random
/// matrices with tied, all-zero and constant columns, bootstraps with
/// repeated rows, min_samples_leaf ∈ {1, 3}, max_features ∈ {0, 1, m} and
/// 2–16 classes: the saved bytes must be equal, and load/save must
/// reproduce them.
void check_forest_fit(CaseContext& ctx);

/// ExtensibleForest::score_rows against the reference walk on forests from
/// the fit generator above, over chunks of 1 to 130 rows (so lane blocks
/// end partial and a tree's lanes straddle two blocks) holding training
/// values, exact split thresholds, ±0 and values far outside the training
/// range: every row's scores, and score_causes of the row alone, must
/// equal the reference bit for bit.
void check_forest_score(CaseContext& ctx);

}  // namespace diagnet::testkit
