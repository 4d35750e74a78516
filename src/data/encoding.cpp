#include "data/encoding.h"

#include "util/require.h"

namespace diagnet::data {

namespace {

/// Row i of (land, mask, local) from one sample's normalised features `z`:
/// landmark-major land features, zero-filled where `available` marks the
/// landmark absent.
void encode_row(const std::vector<double>& z, const FeatureSpace& fs,
                const std::vector<bool>& available, std::size_t i,
                tensor::Matrix& land, tensor::Matrix& mask,
                tensor::Matrix& local) {
  const std::size_t k = fs.metrics_per_landmark();
  for (std::size_t lam = 0; lam < fs.landmark_count(); ++lam) {
    mask(i, lam) = available[lam] ? 1.0f : 0.0f;
    for (std::size_t metric = 0; metric < k; ++metric) {
      const std::size_t j =
          fs.landmark_feature(lam, static_cast<Metric>(metric));
      land(i, lam * k + metric) =
          available[lam] ? static_cast<float>(z[j]) : 0.0f;
    }
  }
  for (std::size_t t = 0; t < fs.local_count(); ++t)
    local(i, t) = static_cast<float>(
        z[fs.local_feature(static_cast<LocalFeature>(t))]);
}

}  // namespace

nn::CoarseDataset encode_coarse(const Dataset& dataset,
                                const FeatureSpace& fs,
                                const Normalizer& normalizer) {
  const std::size_t n = dataset.size();
  const std::size_t L = fs.landmark_count();
  DIAGNET_REQUIRE(dataset.landmark_available.size() == L);

  nn::CoarseDataset out;
  out.land = tensor::Matrix(n, L * fs.metrics_per_landmark());
  out.mask = tensor::Matrix(n, L);
  out.local = tensor::Matrix(n, fs.local_count());
  out.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& sample = dataset.samples[i];
    encode_row(normalizer.apply(sample.features), fs,
               dataset.landmark_available, i, out.land, out.mask, out.local);
    out.labels[i] = static_cast<std::size_t>(sample.coarse_label);
  }
  return out;
}

nn::LandBatch encode_sample(const std::vector<double>& raw_features,
                            const FeatureSpace& fs,
                            const Normalizer& normalizer,
                            const std::vector<bool>& landmark_available) {
  return encode_batch({&raw_features}, fs, normalizer, landmark_available);
}

nn::LandBatch encode_batch(
    const std::vector<const std::vector<double>*>& raw_features,
    const FeatureSpace& fs, const Normalizer& normalizer,
    const std::vector<bool>& landmark_available) {
  const std::size_t n = raw_features.size();
  const std::size_t L = fs.landmark_count();
  DIAGNET_REQUIRE(landmark_available.size() == L);

  nn::LandBatch batch;
  batch.land = tensor::Matrix(n, L * fs.metrics_per_landmark());
  batch.mask = tensor::Matrix(n, L);
  batch.local = tensor::Matrix(n, fs.local_count());
  for (std::size_t i = 0; i < n; ++i) {
    DIAGNET_REQUIRE(raw_features[i] != nullptr);
    encode_row(normalizer.apply(*raw_features[i]), fs, landmark_available, i,
               batch.land, batch.mask, batch.local);
  }
  return batch;
}

tensor::Matrix encode_flat(const Dataset& dataset, const FeatureSpace& fs,
                           const Normalizer& normalizer) {
  const std::vector<bool> available = dataset.feature_available(fs);
  tensor::Matrix x(dataset.size(), fs.total());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const std::vector<double> z =
        encode_flat_sample(dataset.samples[i].features, fs, normalizer,
                           available);
    std::copy(z.begin(), z.end(), x.row_ptr(i));
  }
  return x;
}

std::vector<double> encode_flat_sample(const std::vector<double>& raw,
                                       const FeatureSpace& fs,
                                       const Normalizer& normalizer,
                                       const std::vector<bool>& available) {
  DIAGNET_REQUIRE(available.size() == fs.total());
  std::vector<double> z = normalizer.apply(raw);
  for (std::size_t j = 0; j < z.size(); ++j)
    z[j] = available[j] ? static_cast<float>(z[j]) : 0.0f;
  return z;
}

std::vector<std::size_t> cause_labels(const Dataset& dataset,
                                      std::size_t nominal_marker) {
  std::vector<std::size_t> labels(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const Sample& sample = dataset.samples[i];
    labels[i] = sample.is_faulty() ? sample.primary_cause : nominal_marker;
  }
  return labels;
}

}  // namespace diagnet::data
