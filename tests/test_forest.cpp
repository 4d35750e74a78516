// Tests for the CART tree, the bagged Random Forest, and the paper's
// extensible variant (§IV-B.a).

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "forest/extensible_forest.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace diagnet::forest {
namespace {

/// Two well-separated Gaussian blobs in 2-D.
void make_blobs(std::size_t n, Matrix& x, std::vector<std::size_t>& y,
                std::uint64_t seed) {
  util::Rng rng(seed);
  x = Matrix(n, 2);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = rng.uniform_index(2);
    const double cx = y[i] == 0 ? -2.0 : 2.0;
    x(i, 0) = rng.normal(cx, 0.5);
    x(i, 1) = rng.normal(0.0, 0.5);
  }
}

std::vector<std::size_t> all_rows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

TEST(DecisionTree, SeparatesBlobs) {
  Matrix x;
  std::vector<std::size_t> y;
  make_blobs(400, x, y, 1);
  DecisionTree tree;
  util::Rng rng(2);
  TreeConfig config;
  config.max_features = 2;
  tree.fit(x, y, 2, all_rows(400), config, rng);

  std::size_t correct = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    const double* proba = tree.leaf_proba(x.row_copy(i).data());
    correct += (proba[y[i]] > 0.5) ? 1 : 0;
  }
  EXPECT_GT(correct, 390u);
}

TEST(DecisionTree, PureNodeBecomesLeaf) {
  Matrix x(10, 1);
  std::vector<std::size_t> y(10, 1);  // single class
  for (std::size_t i = 0; i < 10; ++i) x(i, 0) = static_cast<double>(i);
  DecisionTree tree;
  util::Rng rng(3);
  tree.fit(x, y, 2, all_rows(10), TreeConfig{}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.depth(), 1u);
  EXPECT_DOUBLE_EQ(tree.leaf_proba(x.row_copy(0).data())[1], 1.0);
}

TEST(DecisionTree, RespectsMaxDepth) {
  // Noisy labels force deep trees unless capped.
  util::Rng rng(4);
  Matrix x(300, 3);
  std::vector<std::size_t> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = rng.normal();
    y[i] = rng.uniform_index(2);
  }
  DecisionTree tree;
  TreeConfig config;
  config.max_depth = 4;
  config.max_features = 3;
  util::Rng fit_rng(5);
  tree.fit(x, y, 2, all_rows(300), config, fit_rng);
  EXPECT_LE(tree.depth(), 5u);  // root at depth 1 -> leaves at <= 5
}

TEST(DecisionTree, ProbaSumsToOne) {
  Matrix x;
  std::vector<std::size_t> y;
  make_blobs(100, x, y, 6);
  DecisionTree tree;
  util::Rng rng(7);
  tree.fit(x, y, 2, all_rows(100), TreeConfig{}, rng);
  for (std::size_t i = 0; i < 20; ++i) {
    const double* proba = tree.leaf_proba(x.row_copy(i).data());
    EXPECT_NEAR(proba[0] + proba[1], 1.0, 1e-12);
  }
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree tree;
  const double sample[2] = {0.0, 0.0};
  EXPECT_THROW(tree.leaf_proba(sample), std::logic_error);
}

TEST(RandomForest, SeparatesBlobsAndIsDeterministic) {
  Matrix x;
  std::vector<std::size_t> y;
  make_blobs(500, x, y, 8);
  ForestConfig config;
  config.n_estimators = 20;

  RandomForest a;
  a.fit(x, y, 2, config, 99);
  RandomForest b;
  b.fit(x, y, 2, config, 99);

  std::size_t correct = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    correct += a.predict(x.row_copy(i).data()) == y[i] ? 1 : 0;
    const auto pa = a.predict_proba(x.row_copy(i).data());
    const auto pb = b.predict_proba(x.row_copy(i).data());
    EXPECT_DOUBLE_EQ(pa[0], pb[0]);  // same seed -> identical forest
  }
  EXPECT_GT(correct, 490u);
}

TEST(RandomForest, DifferentSeedsGiveDifferentForests) {
  // Overlapping blobs: leaf distributions are non-degenerate, so different
  // bootstraps must disagree somewhere.
  util::Rng rng(9);
  Matrix x(200, 2);
  std::vector<std::size_t> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    y[i] = rng.uniform_index(2);
    x(i, 0) = rng.normal(y[i] == 0 ? -0.5 : 0.5, 1.0);
    x(i, 1) = rng.normal();
  }
  ForestConfig config;
  config.n_estimators = 5;
  RandomForest a, b;
  a.fit(x, y, 2, config, 1);
  b.fit(x, y, 2, config, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < 50 && !any_diff; ++i)
    any_diff = a.predict_proba(x.row_copy(i).data())[0] !=
               b.predict_proba(x.row_copy(i).data())[0];
  EXPECT_TRUE(any_diff);
}

// --------------------------------------------------------------------------
// ExtensibleForest

/// Training data over 6 causes where only causes {1, 2} appear, plus
/// nominal samples: cause c shifts feature c upward.
void make_cause_data(Matrix& x, std::vector<std::size_t>& y,
                     std::uint64_t seed) {
  constexpr std::size_t kN = 600;
  constexpr std::size_t kM = 6;
  util::Rng rng(seed);
  x = Matrix(kN, kM);
  y.resize(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t c = 0; c < kM; ++c) x(i, c) = rng.normal();
    const std::size_t pick = rng.uniform_index(3);
    if (pick == 0) {
      y[i] = ExtensibleForest::kNominal;
    } else {
      y[i] = pick;  // cause 1 or 2
      x(i, pick) += 5.0;
    }
  }
}

TEST(ExtensibleForest, ScoresAllCausesAndSumsToOne) {
  Matrix x;
  std::vector<std::size_t> y;
  make_cause_data(x, y, 10);
  ExtensibleForest model;
  ForestConfig config;
  config.n_estimators = 20;
  model.fit(x, y, 6, config, 11);

  EXPECT_EQ(model.trained_causes(), (std::vector<std::size_t>{1, 2}));
  const auto scores = model.score_causes(x.row_copy(0).data());
  EXPECT_EQ(scores.size(), 6u);
  double sum = 0.0;
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ExtensibleForest, RecognisesTrainedCause) {
  Matrix x;
  std::vector<std::size_t> y;
  make_cause_data(x, y, 12);
  ExtensibleForest model;
  ForestConfig config;
  config.n_estimators = 20;
  model.fit(x, y, 6, config, 13);

  std::vector<double> sample(6, 0.0);
  sample[2] = 5.0;  // clear cause-2 signature
  const auto scores = model.score_causes(sample);
  for (std::size_t c = 0; c < 6; ++c) {
    if (c != 2) {
      EXPECT_GT(scores[2], scores[c]);
    }
  }
}

TEST(ExtensibleForest, UnseenCausesShareRedistributedMassEqually) {
  Matrix x;
  std::vector<std::size_t> y;
  make_cause_data(x, y, 14);
  ExtensibleForest model;
  ForestConfig config;
  config.n_estimators = 20;
  model.fit(x, y, 6, config, 15);

  // An anomaly the forest never saw (cause 4): unseen causes 0, 3, 4, 5
  // all receive exactly unknown/total — the model cannot tell them apart,
  // which is precisely the paper's criticism of this baseline.
  std::vector<double> sample(6, 0.0);
  sample[4] = 5.0;
  const auto scores = model.score_causes(sample);
  const double unknown = model.unknown_probability(sample.data());
  EXPECT_NEAR(scores[0], unknown / 6.0, 1e-9);
  EXPECT_NEAR(scores[3], scores[4], 1e-12);
  EXPECT_NEAR(scores[4], scores[5], 1e-12);
}

TEST(ExtensibleForest, NominalSampleScoresHighUnknown) {
  Matrix x;
  std::vector<std::size_t> y;
  make_cause_data(x, y, 16);
  ExtensibleForest model;
  ForestConfig config;
  config.n_estimators = 20;
  model.fit(x, y, 6, config, 17);
  const std::vector<double> nominal(6, 0.0);
  EXPECT_GT(model.unknown_probability(nominal.data()), 0.5);
}

TEST(ExtensibleForest, RejectsNonFiniteDesignMatrix) {
  // The fit sorts every column once, and a NaN breaks the sort's strict
  // weak order; an infinity has no midpoint threshold.
  Matrix x;
  std::vector<std::size_t> y;
  make_cause_data(x, y, 18);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    Matrix poisoned = x;
    poisoned(7, 3) = bad;
    ExtensibleForest model;
    try {
      model.fit(poisoned, y, 6, ForestConfig{}, 1);
      ADD_FAILURE() << "fit accepted " << bad;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("row 7, column 3"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ExtensibleForest, RejectsAllNominalTraining) {
  Matrix x(10, 2);
  const std::vector<std::size_t> y(10, ExtensibleForest::kNominal);
  ExtensibleForest model;
  EXPECT_THROW(model.fit(x, y, 4, ForestConfig{}, 1), std::logic_error);
}

}  // namespace
}  // namespace diagnet::forest
