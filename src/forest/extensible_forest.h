// The paper's "Extensible Random Forest Classifier" baseline (§IV-B.a),
// also used as the auxiliary model inside DiagNet's ensemble averaging
// (§III-F):
//
//  * the feature dimension is fixed to the maximum landmark fleet; features
//    of landmarks missing at training time are zero-filled upstream;
//  * output classes are the root causes observed during training plus a
//    special "unknown" class trained on nominal samples;
//  * at inference, the unknown-class probability mass is redistributed
//    evenly over every possible root cause, so causes never seen during
//    training still receive a non-null score.
#pragma once

#include <cstddef>
#include <vector>

#include "forest/random_forest.h"

namespace diagnet::forest {

class ExtensibleForest {
 public:
  /// Label value marking a nominal (fault-free) sample in `y_cause`.
  static constexpr std::size_t kNominal = static_cast<std::size_t>(-1);

  /// y_cause[i]: the root-cause index in [0, total_causes) of sample i, or
  /// kNominal. `total_causes` is the full root-cause space (m in the paper),
  /// including causes absent from the training data. X must be finite.
  void fit(const Matrix& x, const std::vector<std::size_t>& y_cause,
           std::size_t total_causes, const ForestConfig& config,
           std::uint64_t seed);

  /// Scores over all root causes (length total_causes, sums to 1): the
  /// one-row call of score_rows.
  std::vector<double> score_causes(const double* sample) const;
  std::vector<double> score_causes(const std::vector<double>& sample) const;

  /// score_causes of the n rows of x (row r starts at x + r * width, and
  /// holds the fitted feature space) into out, n x total_causes(); row r's
  /// scores are the bits score_causes gives it alone. One forest walk for
  /// all rows (RandomForest::predict_proba_rows).
  void score_rows(const double* x, std::size_t n, std::size_t width,
                  double* out) const;

  /// Probability assigned to the "unknown" (nominal) class before
  /// redistribution — exposed for diagnostics and tests.
  double unknown_probability(const double* sample) const;

  std::size_t total_causes() const { return total_causes_; }
  /// Root causes that had at least one training sample.
  const std::vector<std::size_t>& trained_causes() const {
    return class_to_cause_;
  }
  bool trained() const { return forest_.trained(); }
  /// One past the largest feature index any split reads.
  std::size_t feature_bound() const { return forest_.feature_bound(); }

  void save(util::BinaryWriter& writer) const;
  /// Throws std::runtime_error on a malformed forest, or on a cause map
  /// that is not ascending, below total_causes() and one per trained class.
  void load(util::BinaryReader& reader);

 private:
  RandomForest forest_;
  std::vector<std::size_t> class_to_cause_;  // internal class -> cause index
  std::size_t total_causes_ = 0;
};

}  // namespace diagnet::forest
