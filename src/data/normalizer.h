// Feature normalisation with *per-metric-kind* statistics.
//
// Statistics are pooled across landmarks (all latency features share one
// mean/std, etc.), never kept per feature: a landmark that never appeared
// during training can still be normalised at inference time, which is what
// keeps the trained models root-cause extensible. Heavy-tailed metrics are
// log-transformed first; loss ratios are sqrt-transformed.
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "data/feature_space.h"
#include "util/binary_io.h"

namespace diagnet::data {

class Normalizer {
 public:
  /// Fit pooled statistics on the training set, using only the features of
  /// available landmarks (plus all local features). Throws
  /// std::invalid_argument, naming the sample and the feature, when one of
  /// those values is not finite.
  void fit(const Dataset& train, const FeatureSpace& fs);

  /// z-scored transformed features; input is a raw feature vector.
  std::vector<double> apply(const std::vector<double>& raw) const;

  /// Normalise a single feature value.
  double apply_one(std::size_t feature, double value) const;

  bool fitted() const { return !stats_.empty(); }

  /// Binary (de)serialisation of the fitted statistics; load() rebinds the
  /// normaliser to `fs`.
  void save(util::BinaryWriter& writer) const;
  void load(util::BinaryReader& reader, const FeatureSpace& fs);

  /// Number of metric kinds (5 landmark metrics + 5 local features).
  static constexpr std::size_t kKinds =
      netsim::kMetricsPerLandmark + netsim::kLocalFeatures;

  /// The variance-stabilising transform applied before z-scoring.
  static double transform(std::size_t kind, double value);
  /// Metric-kind of a feature (landmark metric index, or 5 + local index).
  static std::size_t kind_of(const FeatureSpace& fs, std::size_t feature);

 private:
  struct KindStats {
    double mean = 0.0;
    double std = 1.0;
  };
  std::vector<KindStats> stats_;  // per kind
  const FeatureSpace* fs_ = nullptr;
};

}  // namespace diagnet::data
