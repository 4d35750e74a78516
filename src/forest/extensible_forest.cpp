#include "forest/extensible_forest.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/obs.h"
#include "util/require.h"

namespace diagnet::forest {

void ExtensibleForest::fit(const Matrix& x,
                           const std::vector<std::size_t>& y_cause,
                           std::size_t total_causes,
                           const ForestConfig& config, std::uint64_t seed) {
  DIAGNET_SPAN("forest.fit");
  DIAGNET_REQUIRE(total_causes > 0);
  DIAGNET_REQUIRE(y_cause.size() == x.rows());
  total_causes_ = total_causes;

  // Map the causes present in training data to compact class indices.
  class_to_cause_.clear();
  std::vector<std::size_t> cause_to_class(total_causes,
                                          static_cast<std::size_t>(-1));
  for (std::size_t label : y_cause) {
    if (label == kNominal) continue;
    DIAGNET_REQUIRE(label < total_causes);
    if (cause_to_class[label] == static_cast<std::size_t>(-1)) {
      cause_to_class[label] = class_to_cause_.size();
      class_to_cause_.push_back(label);
    }
  }
  DIAGNET_REQUIRE_MSG(!class_to_cause_.empty(),
                      "training data contains no faulty sample");
  std::sort(class_to_cause_.begin(), class_to_cause_.end());
  for (std::size_t c = 0; c < class_to_cause_.size(); ++c)
    cause_to_class[class_to_cause_[c]] = c;

  // The "unknown" class takes the last internal index.
  const std::size_t unknown_class = class_to_cause_.size();
  std::vector<std::size_t> labels(y_cause.size());
  for (std::size_t i = 0; i < y_cause.size(); ++i) {
    labels[i] = (y_cause[i] == kNominal) ? unknown_class
                                         : cause_to_class[y_cause[i]];
  }
  forest_.fit(x, labels, unknown_class + 1, config, seed);
}

std::vector<double> ExtensibleForest::score_causes(
    const double* sample) const {
  std::vector<double> scores(total_causes_);
  score_rows(sample, 1, 0, scores.data());
  return scores;
}

void ExtensibleForest::score_rows(const double* x, std::size_t n,
                                  std::size_t width, double* out) const {
  DIAGNET_SPAN("forest.score");
  DIAGNET_COUNT_N("forest.predictions", n);
  DIAGNET_REQUIRE_MSG(trained(), "score on an unfitted model");
  const std::size_t classes = forest_.classes();
  std::vector<double> proba(n * classes);
  forest_.predict_proba_rows(x, n, width, proba.data());
  for (std::size_t r = 0; r < n; ++r) {
    const double* p = proba.data() + r * classes;
    double* scores = out + r * total_causes_;
    // The unknown class's mass is shared evenly by every cause.
    std::fill(scores, scores + total_causes_,
              p[classes - 1] / static_cast<double>(total_causes_));
    for (std::size_t c = 0; c < class_to_cause_.size(); ++c)
      scores[class_to_cause_[c]] += p[c];
  }
}

std::vector<double> ExtensibleForest::score_causes(
    const std::vector<double>& sample) const {
  return score_causes(sample.data());
}

double ExtensibleForest::unknown_probability(const double* sample) const {
  DIAGNET_REQUIRE_MSG(trained(), "score on an unfitted model");
  return forest_.predict_proba(sample).back();
}

}  // namespace diagnet::forest

namespace diagnet::forest {

void ExtensibleForest::save(util::BinaryWriter& writer) const {
  writer.write_u64(0xe47e4500ULL);
  writer.write_u64(total_causes_);
  writer.write_indices(class_to_cause_);
  forest_.save(writer);
}

void ExtensibleForest::load(util::BinaryReader& reader) {
  reader.expect_u64(0xe47e4500ULL, "ExtensibleForest");
  total_causes_ = static_cast<std::size_t>(reader.read_u64());
  class_to_cause_ = reader.read_indices();
  forest_.load(reader);
  // score_causes writes scores[class_to_cause_[c]] for every trained class.
  if (class_to_cause_.size() + 1 != forest_.classes())
    throw std::runtime_error(
        "ExtensibleForest: cause map does not match the class count");
  for (std::size_t c = 0; c < class_to_cause_.size(); ++c) {
    if (class_to_cause_[c] >= total_causes_ ||
        (c > 0 && class_to_cause_[c] <= class_to_cause_[c - 1]))
      throw std::runtime_error(
          "ExtensibleForest: cause map is not ascending below " +
          std::to_string(total_causes_));
  }
}

}  // namespace diagnet::forest
