// Tests for the campaign generator, normaliser, split and encoders — the
// data pipeline between the simulator and the models.

#include <gtest/gtest.h>

#include <cmath>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "data/encoding.h"
#include "data/generator.h"
#include "data/normalizer.h"
#include "data/split.h"
#include "nn/trainer.h"
#include "testkit/gen.h"
#include "util/rng.h"
#include "util/stats.h"

namespace diagnet::data {
namespace {

/// One small shared campaign for the whole file (generation is the slow
/// part, so build it once).
struct CampaignFixture {
  netsim::Simulator sim = netsim::Simulator::make_default(42);
  FeatureSpace fs{sim.topology()};
  Dataset dataset;

  CampaignFixture() {
    sim.calibrate_qoe(32);
    CampaignConfig config;
    config.nominal_samples = 300;
    config.fault_samples = 700;
    config.seed = 7;
    dataset = generate_campaign(sim, fs, config);
  }
};

CampaignFixture& fixture() {
  static CampaignFixture f;
  return f;
}

TEST(Generator, ProducesRequestedSampleCount) {
  EXPECT_EQ(fixture().dataset.size(), 1000u);
  EXPECT_EQ(fixture().dataset.landmark_available,
            std::vector<bool>(10, true));
}

TEST(Generator, FeatureVectorsAreComplete) {
  for (const Sample& sample : fixture().dataset.samples) {
    ASSERT_EQ(sample.features.size(), fixture().fs.total());
    for (double v : sample.features) EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(sample.page_load_ms, 0.0);
  }
}

TEST(Generator, LabelInvariants) {
  const auto& fs = fixture().fs;
  for (const Sample& sample : fixture().dataset.samples) {
    if (sample.is_faulty()) {
      // A faulty label requires degraded QoE, injected faults, and a
      // primary cause drawn from the relevant causes.
      EXPECT_TRUE(sample.qoe_degraded);
      EXPECT_FALSE(sample.injected.empty());
      EXPECT_NE(std::find(sample.true_causes.begin(),
                          sample.true_causes.end(), sample.primary_cause),
                sample.true_causes.end());
      EXPECT_EQ(sample.coarse_label, fs.family_of(sample.primary_cause));
      // Every relevant cause maps back to one of the injected faults.
      for (std::size_t cause : sample.true_causes) {
        bool matches_injected = false;
        for (const auto& fault : sample.injected)
          matches_injected |= fs.cause_of_fault(fault) == cause;
        EXPECT_TRUE(matches_injected);
      }
    } else {
      EXPECT_EQ(sample.coarse_label, netsim::FaultFamily::Nominal);
      EXPECT_TRUE(sample.true_causes.empty());
    }
  }
}

TEST(Generator, NominalScenariosCarryNoFaults) {
  // The first nominal_samples indices are fault-free scenarios.
  for (std::size_t i = 0; i < 300; ++i)
    EXPECT_TRUE(fixture().dataset.samples[i].injected.empty());
  // Fault scenarios inject 1-2 faults.
  for (std::size_t i = 300; i < 1000; ++i) {
    const auto& injected = fixture().dataset.samples[i].injected;
    EXPECT_GE(injected.size(), 1u);
    EXPECT_LE(injected.size(), 2u);
  }
}

TEST(Generator, FaultsLandInConfiguredRegions) {
  const auto regions = netsim::default_fault_regions(
      fixture().sim.topology());
  for (const Sample& sample : fixture().dataset.samples)
    for (const auto& fault : sample.injected)
      EXPECT_NE(std::find(regions.begin(), regions.end(), fault.region),
                regions.end());
}

TEST(Generator, ProducesBothFaultyAndNominal) {
  const std::size_t faulty = fixture().dataset.count_faulty();
  EXPECT_GT(faulty, 100u);           // a healthy share of labelled faults
  EXPECT_GT(fixture().dataset.count_nominal(), 300u);
  EXPECT_EQ(faulty + fixture().dataset.count_nominal(), 1000u);
}

TEST(Generator, AllSixFamiliesAppear) {
  std::set<netsim::FaultFamily> seen;
  for (const Sample& sample : fixture().dataset.samples)
    if (sample.is_faulty()) seen.insert(sample.coarse_label);
  EXPECT_GE(seen.size(), 5u);  // all six in a big campaign; ≥5 in this one
}

TEST(Generator, DeterministicAcrossRuns) {
  CampaignConfig config;
  config.nominal_samples = 50;
  config.fault_samples = 100;
  config.seed = 9;
  const Dataset a = generate_campaign(fixture().sim, fixture().fs, config);
  const Dataset b = generate_campaign(fixture().sim, fixture().fs, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.samples[i].features, b.samples[i].features);
    EXPECT_EQ(a.samples[i].primary_cause, b.samples[i].primary_cause);
  }
}

TEST(Generator, ActiveRegionRestrictionHonoured) {
  CampaignConfig config;
  config.nominal_samples = 80;
  config.fault_samples = 0;
  config.active_client_regions = {2, 5};
  config.seed = 10;
  const Dataset d = generate_campaign(fixture().sim, fixture().fs, config);
  for (const Sample& sample : d.samples) {
    EXPECT_TRUE(sample.client_region == 2 || sample.client_region == 5);
  }
}

TEST(Generator, FixedFaultsAreInjectedVerbatim) {
  CampaignConfig config;
  config.nominal_samples = 0;
  config.fault_samples = 60;
  config.fixed_faults = {
      netsim::default_fault(netsim::FaultFamily::Latency, 2),
      netsim::default_fault(netsim::FaultFamily::Latency, 3)};
  config.seed = 11;
  const Dataset d = generate_campaign(fixture().sim, fixture().fs, config);
  for (const Sample& sample : d.samples)
    EXPECT_EQ(sample.injected, config.fixed_faults);
}

TEST(Generator, SimultaneousFaultsCanBothBeRelevant) {
  // The Fig. 10 scenario: two latency faults injected at once. Some
  // degraded samples must attribute BOTH as relevant causes (services
  // depending on both regions), and every multi-cause sample must list
  // distinct causes.
  const auto& topology = fixture().sim.topology();
  CampaignConfig config;
  config.nominal_samples = 0;
  config.fault_samples = 800;
  config.fixed_faults = {
      netsim::default_fault(netsim::FaultFamily::Latency,
                            topology.index_of("BEAU")),
      netsim::default_fault(netsim::FaultFamily::Latency,
                            topology.index_of("GRAV"))};
  config.seed = 21;
  const Dataset d = generate_campaign(fixture().sim, fixture().fs, config);

  std::size_t multi = 0;
  for (const Sample& sample : d.samples) {
    if (sample.true_causes.size() < 2) continue;
    ++multi;
    EXPECT_EQ(sample.true_causes.size(), 2u);
    EXPECT_NE(sample.true_causes[0], sample.true_causes[1]);
  }
  EXPECT_GT(multi, 4u);
}

TEST(Generator, RequiresCalibratedSimulator) {
  netsim::Simulator raw = netsim::Simulator::make_default(1);
  FeatureSpace fs(raw.topology());
  EXPECT_THROW(generate_campaign(raw, fs, CampaignConfig{}),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Normalizer

TEST(Normalizer, TrainFeaturesBecomeStandardised) {
  const auto& fs = fixture().fs;
  Normalizer norm;
  norm.fit(fixture().dataset, fs);

  // Pool normalised values per kind over the dataset: mean ~0, std ~1.
  std::vector<util::RunningStats> stats(Normalizer::kKinds);
  for (const Sample& sample : fixture().dataset.samples) {
    const auto z = norm.apply(sample.features);
    for (std::size_t j = 0; j < z.size(); ++j)
      stats[Normalizer::kind_of(fs, j)].add(z[j]);
  }
  for (const auto& s : stats) {
    EXPECT_NEAR(s.mean(), 0.0, 0.05);
    EXPECT_NEAR(s.stddev(), 1.0, 0.05);
  }
}

TEST(Normalizer, SharedKindStatsExtendToHiddenLandmarks) {
  // Fit with landmark 0 hidden; its features must still normalise to
  // sensible values because statistics are pooled per metric kind.
  const auto& fs = fixture().fs;
  Dataset masked = fixture().dataset;
  masked.landmark_available[0] = false;
  Normalizer norm;
  norm.fit(masked, fs);
  for (const Sample& sample : fixture().dataset.samples) {
    const auto z = norm.apply(sample.features);
    for (std::size_t m = 0; m < fs.metrics_per_landmark(); ++m) {
      const double v = z[fs.landmark_feature(0, static_cast<Metric>(m))];
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_LT(std::abs(v), 50.0);
    }
  }
}

TEST(Normalizer, NearConstantFeatureDoesNotExplodeZScores) {
  // Regression: a feature whose training variance is ~1e-17 has a stddev of
  // ~3e-9 — just above the old hard 1e-9 cutoff — so inference-time values
  // in the feature's ordinary range used to be divided by that noise floor,
  // producing z-scores around 1e8 that saturated the MLP. Spread that is
  // negligible relative to the feature magnitude must be treated as
  // constant (no scaling).
  const auto& fs = fixture().fs;
  Dataset d;
  d.landmark_available.assign(10, true);
  // CpuLoad is a load fraction: identity transform, so fitted stats see the
  // raw values directly.
  const std::size_t feature = fs.local_feature(LocalFeature::CpuLoad);
  for (std::size_t i = 0; i < 64; ++i) {
    Sample s;
    s.features.assign(fs.total(), 1.0);
    s.features[feature] =
        0.5 + (i % 2 == 0 ? 1.0 : -1.0) * std::sqrt(1e-17);
    d.samples.push_back(std::move(s));
  }
  Normalizer norm;
  norm.fit(d, fs);
  // A perfectly ordinary load value near the training range must normalise
  // to something bounded, not an astronomical z-score.
  const double z = norm.apply_one(feature, 0.6);
  EXPECT_TRUE(std::isfinite(z));
  EXPECT_LT(std::abs(z), 100.0);
}

TEST(Normalizer, RefusesNonFiniteTrainingValues) {
  // strtod accepts "nan" and "inf"; either would be pooled into the
  // statistic of every landmark feature of its kind.
  const auto& fs = fixture().fs;
  const std::size_t feature = fs.landmark_feature(1, Metric::Jitter);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Dataset poisoned = fixture().dataset;
    poisoned.samples[3].features[feature] = bad;
    Normalizer norm;
    try {
      norm.fit(poisoned, fs);
      ADD_FAILURE() << "fit accepted " << bad;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("sample 3 "), std::string::npos) << what;
      EXPECT_NE(what.find("feature " + std::to_string(feature) + " (" +
                          fs.name(feature) + ")"),
                std::string::npos)
          << what;
    }
  }
  // A hidden landmark's features are not read, so they may hold anything.
  Dataset hidden = fixture().dataset;
  hidden.landmark_available[1] = false;
  hidden.samples[3].features[feature] =
      std::numeric_limits<double>::quiet_NaN();
  Normalizer norm;
  EXPECT_NO_THROW(norm.fit(hidden, fs));
}

TEST(Normalizer, UnfittedThrows) {
  Normalizer norm;
  EXPECT_THROW(norm.apply(std::vector<double>(55, 0.0)), std::logic_error);
}

// ---------------------------------------------------------------------------
// Split

TEST(Split, HiddenCausesForcedIntoTest) {
  const auto& fs = fixture().fs;
  SplitConfig config;
  config.seed = 12;
  const DataSplit split = make_split(fixture().dataset, fs, config);

  EXPECT_EQ(split.hidden_landmarks.size(), 3u);
  for (std::size_t lam : split.hidden_landmarks)
    EXPECT_FALSE(split.train.landmark_available[lam]);
  EXPECT_EQ(split.test.landmark_available, std::vector<bool>(10, true));

  for (const Sample& sample : split.train.samples)
    EXPECT_FALSE(split.cause_is_new(fs, sample));
  // And the test set does contain hidden-cause samples.
  std::size_t new_count = 0;
  for (const Sample& sample : split.test.samples)
    new_count += split.cause_is_new(fs, sample) ? 1 : 0;
  EXPECT_GT(new_count, 0u);
}

TEST(Split, PreservesEverySample) {
  SplitConfig config;
  config.seed = 13;
  const DataSplit split = make_split(fixture().dataset, fixture().fs, config);
  EXPECT_EQ(split.train.size() + split.test.size(),
            fixture().dataset.size());
}

TEST(Split, ApproximatelyStratified) {
  SplitConfig config;
  config.seed = 14;
  config.train_fraction = 0.8;
  const DataSplit split = make_split(fixture().dataset, fixture().fs, config);
  // Known-cause samples split 80/20 per stratum; hidden-cause samples all
  // land in test, so train gets ~80% of the splittable pool.
  std::size_t hidden = 0;
  for (const Sample& sample : fixture().dataset.samples)
    hidden += [&] {
      if (!sample.is_faulty()) return false;
      if (!fixture().fs.is_landmark_feature(sample.primary_cause))
        return false;
      const std::size_t lam =
          fixture().fs.landmark_of(sample.primary_cause);
      return std::find(split.hidden_landmarks.begin(),
                       split.hidden_landmarks.end(),
                       lam) != split.hidden_landmarks.end();
    }() ? 1 : 0;
  const double splittable =
      static_cast<double>(fixture().dataset.size() - hidden);
  EXPECT_NEAR(static_cast<double>(split.train.size()) / splittable, 0.8,
              0.02);
}

// ---------------------------------------------------------------------------
// Encoders

TEST(Encoding, CoarseDatasetLayout) {
  const auto& fs = fixture().fs;
  SplitConfig split_config;
  split_config.seed = 15;
  const DataSplit split =
      make_split(fixture().dataset, fs, split_config);
  Normalizer norm;
  norm.fit(split.train, fs);

  const nn::CoarseDataset coarse = encode_coarse(split.train, fs, norm);
  EXPECT_EQ(coarse.size(), split.train.size());
  EXPECT_EQ(coarse.land.cols(), 50u);
  EXPECT_EQ(coarse.local.cols(), 5u);

  // Hidden landmarks: mask 0 and zero-filled features in every row.
  for (std::size_t lam : split.hidden_landmarks)
    for (std::size_t i = 0; i < std::min<std::size_t>(20, coarse.size());
         ++i) {
      EXPECT_DOUBLE_EQ(coarse.mask(i, lam), 0.0);
      for (std::size_t m = 0; m < 5; ++m)
        EXPECT_DOUBLE_EQ(coarse.land(i, lam * 5 + m), 0.0);
    }

  // Labels are coarse families.
  for (std::size_t i = 0; i < coarse.size(); ++i) {
    EXPECT_EQ(coarse.labels[i],
              static_cast<std::size_t>(split.train.samples[i].coarse_label));
    EXPECT_LT(coarse.labels[i], netsim::kFaultFamilies);
  }
}

TEST(Encoding, FlatMatrixZeroFillsUnavailable) {
  const auto& fs = fixture().fs;
  Dataset masked = fixture().dataset;
  masked.landmark_available[4] = false;
  Normalizer norm;
  norm.fit(masked, fs);
  const tensor::Matrix flat = encode_flat(masked, fs, norm);
  EXPECT_EQ(flat.rows(), masked.size());
  EXPECT_EQ(flat.cols(), fs.total());
  for (std::size_t i = 0; i < std::min<std::size_t>(20, flat.rows()); ++i)
    for (std::size_t m = 0; m < 5; ++m)
      EXPECT_DOUBLE_EQ(
          flat(i, fs.landmark_feature(4, static_cast<Metric>(m))), 0.0);
}

// ---------------------------------------------------------------------------
// Edge shapes: the encoders and minibatch gather must handle empty and
// minimal inputs (zero rows, one landmark, one sample) without special
// casing upstream.

TEST(Encoding, BatchWithZeroRowsHasFullWidth) {
  const auto& fs = fixture().fs;
  Normalizer norm;
  norm.fit(fixture().dataset, fs);
  const std::vector<bool> all(fs.landmark_count(), true);
  const nn::LandBatch batch = encode_batch({}, fs, norm, all);
  EXPECT_EQ(batch.land.rows(), 0u);
  EXPECT_EQ(batch.land.cols(), fs.landmark_count() * 5u);
  EXPECT_EQ(batch.mask.rows(), 0u);
  EXPECT_EQ(batch.mask.cols(), fs.landmark_count());
  EXPECT_EQ(batch.local.rows(), 0u);
  EXPECT_EQ(batch.local.cols(), fs.local_count());
}

TEST(Encoding, SingleLandmarkTopology) {
  util::Rng rng(91);
  const netsim::Topology topo = testkit::gen::topology(rng, 1);
  const FeatureSpace fs(topo);
  ASSERT_EQ(fs.landmark_count(), 1u);
  ASSERT_EQ(fs.total(), 1u * 5u + 5u);

  Dataset d;
  d.landmark_available.assign(1, true);
  for (std::size_t i = 0; i < 16; ++i) {
    Sample s;
    s.features.resize(fs.total());
    for (double& v : s.features) v = rng.uniform(0.1, 5.0);
    d.samples.push_back(std::move(s));
  }
  Normalizer norm;
  norm.fit(d, fs);

  const nn::CoarseDataset coarse = encode_coarse(d, fs, norm);
  EXPECT_EQ(coarse.size(), 16u);
  EXPECT_EQ(coarse.land.cols(), 5u);
  EXPECT_EQ(coarse.mask.cols(), 1u);
  EXPECT_EQ(coarse.local.cols(), 5u);
  for (std::size_t i = 0; i < coarse.size(); ++i)
    EXPECT_DOUBLE_EQ(coarse.mask(i, 0), 1.0);

  const nn::LandBatch one =
      encode_sample(d.samples[3].features, fs, norm, {true});
  EXPECT_EQ(one.land.rows(), 1u);
  EXPECT_EQ(one.land.cols(), 5u);
  for (std::size_t m = 0; m < 5; ++m)
    EXPECT_DOUBLE_EQ(one.land(0, m), coarse.land(3, m));
}

TEST(Encoding, SinglePointerBatchMatchesEncodeSample) {
  const auto& fs = fixture().fs;
  Normalizer norm;
  norm.fit(fixture().dataset, fs);
  std::vector<bool> avail(fs.landmark_count(), true);
  avail[2] = false;  // one masked landmark exercises the zero-fill path
  const Sample& sample = fixture().dataset.samples[5];

  const nn::LandBatch single = encode_sample(sample.features, fs, norm, avail);
  const nn::LandBatch batch =
      encode_batch({&sample.features}, fs, norm, avail);
  ASSERT_EQ(batch.land.rows(), 1u);
  for (std::size_t c = 0; c < single.land.cols(); ++c)
    EXPECT_DOUBLE_EQ(batch.land(0, c), single.land(0, c));
  for (std::size_t lam = 0; lam < fs.landmark_count(); ++lam)
    EXPECT_DOUBLE_EQ(batch.mask(0, lam), single.mask(0, lam));
  for (std::size_t t = 0; t < fs.local_count(); ++t)
    EXPECT_DOUBLE_EQ(batch.local(0, t), single.local(0, t));
}

TEST(Encoding, BatchRejectsNullSample) {
  const auto& fs = fixture().fs;
  Normalizer norm;
  norm.fit(fixture().dataset, fs);
  const std::vector<bool> all(fs.landmark_count(), true);
  EXPECT_THROW(encode_batch({nullptr}, fs, norm, all), std::logic_error);
}

TEST(CoarseDatasetGather, EmptyRowsYieldEmptyBatch) {
  const auto& fs = fixture().fs;
  Normalizer norm;
  norm.fit(fixture().dataset, fs);
  const nn::CoarseDataset coarse = encode_coarse(fixture().dataset, fs, norm);

  const nn::LandBatch batch = coarse.gather({});
  EXPECT_EQ(batch.land.rows(), 0u);
  EXPECT_EQ(batch.land.cols(), coarse.land.cols());
  EXPECT_EQ(batch.mask.rows(), 0u);
  EXPECT_EQ(batch.local.rows(), 0u);
  EXPECT_TRUE(coarse.gather_labels({}).empty());
}

TEST(CoarseDatasetGather, SingleRowMatchesSource) {
  const auto& fs = fixture().fs;
  Normalizer norm;
  norm.fit(fixture().dataset, fs);
  const nn::CoarseDataset coarse = encode_coarse(fixture().dataset, fs, norm);

  const std::size_t r = 17;
  const nn::LandBatch batch = coarse.gather({r});
  ASSERT_EQ(batch.land.rows(), 1u);
  for (std::size_t c = 0; c < coarse.land.cols(); ++c)
    EXPECT_DOUBLE_EQ(batch.land(0, c), coarse.land(r, c));
  for (std::size_t c = 0; c < coarse.mask.cols(); ++c)
    EXPECT_DOUBLE_EQ(batch.mask(0, c), coarse.mask(r, c));
  for (std::size_t c = 0; c < coarse.local.cols(); ++c)
    EXPECT_DOUBLE_EQ(batch.local(0, c), coarse.local(r, c));
  EXPECT_EQ(coarse.gather_labels({r}), std::vector<std::size_t>{coarse.labels[r]});
}

TEST(CoarseDatasetGather, ReusedBufferShrinksToRequest) {
  // The allocation-free overload must leave exactly n rows in the output
  // even when the buffer previously held a larger batch.
  const auto& fs = fixture().fs;
  Normalizer norm;
  norm.fit(fixture().dataset, fs);
  const nn::CoarseDataset coarse = encode_coarse(fixture().dataset, fs, norm);

  nn::LandBatch buffer;
  const std::vector<std::size_t> big{0, 1, 2, 3, 4, 5, 6, 7};
  coarse.gather(big.data(), big.size(), buffer);
  ASSERT_EQ(buffer.land.rows(), 8u);
  const std::vector<std::size_t> small{9};
  coarse.gather(small.data(), small.size(), buffer);
  EXPECT_EQ(buffer.land.rows(), 1u);
  for (std::size_t c = 0; c < coarse.land.cols(); ++c)
    EXPECT_DOUBLE_EQ(buffer.land(0, c), coarse.land(9, c));
}

TEST(Encoding, CauseLabelsUseMarker) {
  const auto labels = cause_labels(fixture().dataset, 999);
  ASSERT_EQ(labels.size(), fixture().dataset.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const Sample& sample = fixture().dataset.samples[i];
    if (sample.is_faulty())
      EXPECT_EQ(labels[i], sample.primary_cause);
    else
      EXPECT_EQ(labels[i], 999u);
  }
}

}  // namespace
}  // namespace diagnet::data
