#include "data/normalizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/require.h"
#include "util/stats.h"

namespace diagnet::data {

double Normalizer::transform(std::size_t kind, double value) {
  switch (kind) {
    case static_cast<std::size_t>(Metric::Latency):
    case static_cast<std::size_t>(Metric::Jitter):
    case static_cast<std::size_t>(Metric::DownBw):
    case static_cast<std::size_t>(Metric::UpBw):
      return std::log1p(std::max(0.0, value));
    case static_cast<std::size_t>(Metric::Loss):
      return std::sqrt(std::max(0.0, value));
    default:
      break;
  }
  const auto local = static_cast<LocalFeature>(
      kind - netsim::kMetricsPerLandmark);
  switch (local) {
    case LocalFeature::GatewayRtt:
    case LocalFeature::DnsTime:
      return std::log1p(std::max(0.0, value));
    default:
      return value;  // load fractions are already in [0, 1]
  }
}

std::size_t Normalizer::kind_of(const FeatureSpace& fs, std::size_t feature) {
  if (fs.is_landmark_feature(feature))
    return static_cast<std::size_t>(fs.metric_of(feature));
  return netsim::kMetricsPerLandmark +
         static_cast<std::size_t>(fs.local_of(feature));
}

void Normalizer::fit(const Dataset& train, const FeatureSpace& fs) {
  DIAGNET_REQUIRE(!train.samples.empty());
  fs_ = &fs;
  const std::vector<bool> available = train.feature_available(fs);

  std::vector<util::RunningStats> acc(kKinds);
  for (std::size_t i = 0; i < train.samples.size(); ++i) {
    const Sample& sample = train.samples[i];
    DIAGNET_REQUIRE(sample.features.size() == fs.total());
    for (std::size_t j = 0; j < fs.total(); ++j) {
      if (!available[j]) continue;
      // One NaN or infinity would poison the statistic of its whole kind.
      if (!std::isfinite(sample.features[j]))
        throw std::invalid_argument(
            "normalizer: training sample " + std::to_string(i) +
            " has a non-finite value of feature " + std::to_string(j) + " (" +
            fs.name(j) + ")");
      const std::size_t kind = kind_of(fs, j);
      acc[kind].add(transform(kind, sample.features[j]));
    }
  }

  stats_.resize(kKinds);
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    stats_[kind].mean = acc[kind].mean();
    // A near-constant feature has a stddev that is pure numerical noise;
    // dividing by it turns tiny fluctuations into astronomical z-scores
    // that saturate the MLP. Any spread negligible relative to the
    // feature's own magnitude is treated as constant: no scaling.
    const double floor = 1e-6 * std::max(1.0, std::abs(acc[kind].mean()));
    const double std = acc[kind].stddev();
    stats_[kind].std = std > floor ? std : 1.0;
  }
}

double Normalizer::apply_one(std::size_t feature, double value) const {
  DIAGNET_REQUIRE_MSG(fitted(), "normalizer not fitted");
  const std::size_t kind = kind_of(*fs_, feature);
  return (transform(kind, value) - stats_[kind].mean) / stats_[kind].std;
}

std::vector<double> Normalizer::apply(const std::vector<double>& raw) const {
  DIAGNET_REQUIRE_MSG(fitted(), "normalizer not fitted");
  DIAGNET_REQUIRE(raw.size() == fs_->total());
  std::vector<double> out(raw.size());
  for (std::size_t j = 0; j < raw.size(); ++j) out[j] = apply_one(j, raw[j]);
  return out;
}

}  // namespace diagnet::data

namespace diagnet::data {

void Normalizer::save(util::BinaryWriter& writer) const {
  DIAGNET_REQUIRE_MSG(fitted(), "cannot save an unfitted normalizer");
  writer.write_u64(0x40a11e70ULL);
  writer.write_u64(stats_.size());
  for (const KindStats& s : stats_) {
    writer.write_double(s.mean);
    writer.write_double(s.std);
  }
}

void Normalizer::load(util::BinaryReader& reader, const FeatureSpace& fs) {
  reader.expect_u64(0x40a11e70ULL, "Normalizer");
  const std::uint64_t count = reader.read_u64();
  stats_.resize(count);
  for (auto& s : stats_) {
    s.mean = reader.read_double();
    s.std = reader.read_double();
  }
  fs_ = &fs;
}

}  // namespace diagnet::data
