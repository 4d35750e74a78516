// Reference fit for the CART forest: the obvious builder that re-sorts
// (value, label) pairs for every candidate feature at every node and scores
// each split point with a full Gini pass. It is the specification the
// presorted production builder (src/forest/decision_tree.cpp) must match
// byte for byte, RNG consumption included.
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

}  // namespace oracle

/// DecisionTree and RandomForest fits against the reference on random
/// matrices with tied, all-zero and constant columns, bootstraps with
/// repeated rows, min_samples_leaf ∈ {1, 3}, max_features ∈ {0, 1, m} and
/// 2–16 classes: the saved bytes must be equal, and load/save must
/// reproduce them.
void check_forest_fit(CaseContext& ctx);

}  // namespace diagnet::testkit
