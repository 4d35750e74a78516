// Tests for the client agent: windowed aggregation and the online
// probe/visit/diagnose loop.

#include <gtest/gtest.h>

#include "agent/agent.h"
#include "eval/pipeline.h"

namespace diagnet::agent {
namespace {

// ---------------------------------------------------------------------------
// MeasurementWindow

struct WindowFixture {
  netsim::Topology topology = netsim::default_topology();
  data::FeatureSpace fs{topology};
};

netsim::LandmarkMeasurement probe_with_latency(double latency) {
  netsim::LandmarkMeasurement m;
  m.latency_ms = latency;
  m.jitter_ms = 1.0;
  m.loss_ratio = 0.001;
  m.down_mbps = 100.0;
  m.up_mbps = 50.0;
  return m;
}

TEST(MeasurementWindow, EmptyWindowHasNoCoverage) {
  WindowFixture f;
  const MeasurementWindow window(f.fs);
  for (bool covered : window.landmark_coverage()) EXPECT_FALSE(covered);
  const auto snapshot = window.snapshot();
  for (double v : snapshot) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MeasurementWindow, MedianOverRecordedProbes) {
  WindowFixture f;
  MeasurementWindow window(f.fs, 8);
  for (double latency : {10.0, 30.0, 20.0})
    window.record_probe(2, probe_with_latency(latency));
  const auto snapshot = window.snapshot();
  EXPECT_DOUBLE_EQ(
      snapshot[f.fs.landmark_feature(2, data::Metric::Latency)], 20.0);
  EXPECT_DOUBLE_EQ(
      snapshot[f.fs.landmark_feature(2, data::Metric::DownBw)], 100.0);
  EXPECT_TRUE(window.has_landmark(2));
  EXPECT_FALSE(window.has_landmark(3));
}

TEST(MeasurementWindow, RingEvictsOldValues) {
  WindowFixture f;
  MeasurementWindow window(f.fs, 3);
  // 5 probes into a capacity-3 ring: only the last 3 (30, 40, 50) remain.
  for (double latency : {10.0, 20.0, 30.0, 40.0, 50.0})
    window.record_probe(0, probe_with_latency(latency));
  EXPECT_EQ(window.count(f.fs.landmark_feature(0, data::Metric::Latency)),
            3u);
  EXPECT_DOUBLE_EQ(
      window.snapshot()[f.fs.landmark_feature(0, data::Metric::Latency)],
      40.0);
}

TEST(MeasurementWindow, LocalMetricsRecorded) {
  WindowFixture f;
  MeasurementWindow window(f.fs);
  netsim::LocalMeasurement local;
  local.gateway_rtt_ms = 3.0;
  local.cpu_load = 0.4;
  local.mem_load = 0.5;
  local.proc_load = 0.3;
  local.dns_ms = 12.0;
  window.record_local(local);
  const auto snapshot = window.snapshot();
  EXPECT_DOUBLE_EQ(
      snapshot[f.fs.local_feature(data::LocalFeature::GatewayRtt)], 3.0);
  EXPECT_DOUBLE_EQ(snapshot[f.fs.local_feature(data::LocalFeature::DnsTime)],
                   12.0);
}

TEST(MeasurementWindow, ClearForgetsEverything) {
  WindowFixture f;
  MeasurementWindow window(f.fs);
  window.record_probe(1, probe_with_latency(10.0));
  window.clear();
  EXPECT_FALSE(window.has_landmark(1));
}

// ---------------------------------------------------------------------------
// ClientAgent (needs a trained model — share one small pipeline)

eval::Pipeline& pipeline() {
  static auto instance = [] {
    eval::PipelineConfig config = eval::PipelineConfig::small();
    config.seed = 31337;
    return std::make_unique<eval::Pipeline>(config);
  }();
  return *instance;
}

AgentConfig agent_config(std::size_t region) {
  AgentConfig config;
  config.region = region;
  config.client_id = 4;
  config.probe_budget = {6, fleet::ProbeStrategy::SpreadK};
  config.seed = 5;
  return config;
}

TEST(ClientAgent, ProbesRespectBudgetAndFleet) {
  auto& p = pipeline();
  fleet::FleetConfig fleet_config;
  fleet_config.failures_per_day = 0.0;
  fleet_config.maintenance_hours = 0.0;
  const fleet::LandmarkFleet fleet(10, fleet_config);

  ClientAgent agent(p.simulator(), fleet, p.diagnet(), p.feature_space(),
                    agent_config(2));
  agent.probe_epoch(1.0, {});
  EXPECT_EQ(agent.probes_sent(), 6u);
  std::size_t covered = 0;
  for (bool c : agent.window().landmark_coverage()) covered += c ? 1 : 0;
  EXPECT_EQ(covered, 6u);

  agent.probe_epoch(2.0, {});
  EXPECT_EQ(agent.probes_sent(), 12u);
}

TEST(ClientAgent, HealthyVisitsCarryNoDiagnosis) {
  auto& p = pipeline();
  fleet::FleetConfig fleet_config;
  fleet_config.failures_per_day = 0.0;
  fleet_config.maintenance_hours = 0.0;
  const fleet::LandmarkFleet fleet(10, fleet_config);
  ClientAgent agent(p.simulator(), fleet, p.diagnet(), p.feature_space(),
                    agent_config(5));
  agent.probe_epoch(1.0, {});
  // Nominal conditions: the large majority of visits stay healthy.
  std::size_t degraded = 0;
  for (int v = 0; v < 20; ++v) {
    const VisitOutcome outcome = agent.visit(0, 1.0 + v * 0.1, {});
    degraded += outcome.degraded ? 1 : 0;
    if (!outcome.degraded) {
      EXPECT_FALSE(outcome.diagnosis.has_value());
    }
  }
  EXPECT_LT(degraded, 5u);
}

TEST(ClientAgent, DegradedVisitYieldsRankedDiagnosis) {
  auto& p = pipeline();
  fleet::FleetConfig fleet_config;
  fleet_config.failures_per_day = 0.0;
  fleet_config.maintenance_hours = 0.0;
  const fleet::LandmarkFleet fleet(10, fleet_config);

  const std::size_t region = p.feature_space().topology().index_of("AMST");
  ClientAgent agent(p.simulator(), fleet, p.diagnet(), p.feature_space(),
                    agent_config(region));

  // A massive uplink fault at the agent's region degrades everything (we
  // use 3x the paper's default magnitude so every visit trips the QoE
  // threshold — this test exercises the loop, not threshold sensitivity).
  netsim::FaultSpec uplink =
      netsim::default_fault(netsim::FaultFamily::Uplink, region);
  uplink.magnitude = 150.0;
  const netsim::ActiveFaults faults{uplink};
  for (int e = 0; e < 4; ++e)
    agent.probe_epoch(1.0 + e * 0.25, faults);

  std::size_t diagnosed = 0;
  std::size_t uplink_top3 = 0;
  const std::size_t uplink_cause =
      p.feature_space().local_feature(data::LocalFeature::GatewayRtt);
  for (int v = 0; v < 10; ++v) {
    const VisitOutcome outcome = agent.visit(1, 2.0 + v * 0.1, faults);
    if (!outcome.degraded) continue;
    ++diagnosed;
    ASSERT_TRUE(outcome.diagnosis.has_value());
    EXPECT_EQ(outcome.diagnosis->scores.size(), 55u);
    for (std::size_t r = 0; r < 3; ++r)
      if (outcome.diagnosis->ranking[r] == uplink_cause) {
        ++uplink_top3;
        break;
      }
  }
  EXPECT_GT(diagnosed, 5u);       // +50 ms gateway latency is very visible
  EXPECT_GT(uplink_top3 * 2, diagnosed);  // majority point at the uplink
}

TEST(ClientAgent, DiagnosisUsesOnlyProbedLandmarks) {
  auto& p = pipeline();
  fleet::FleetConfig fleet_config;
  fleet_config.failures_per_day = 0.0;
  fleet_config.maintenance_hours = 0.0;
  const fleet::LandmarkFleet fleet(10, fleet_config);

  AgentConfig config = agent_config(0);
  config.probe_budget = {3, fleet::ProbeStrategy::NearestK};
  ClientAgent agent(p.simulator(), fleet, p.diagnet(), p.feature_space(),
                    config);
  const std::size_t region =
      p.feature_space().topology().index_of("EAST");
  const netsim::ActiveFaults faults{
      netsim::default_fault(netsim::FaultFamily::Load, 0)};
  agent.probe_epoch(1.0, faults);

  for (int v = 0; v < 10; ++v) {
    const VisitOutcome outcome = agent.visit(2, 1.5 + v * 0.1, faults);
    if (!outcome.degraded) continue;
    // Causes of unprobed landmarks got zero attention.
    const auto coverage = agent.window().landmark_coverage();
    for (std::size_t lam = 0; lam < coverage.size(); ++lam) {
      if (coverage[lam]) continue;
      for (std::size_t m = 0; m < 5; ++m) {
        const std::size_t j = p.feature_space().landmark_feature(
            lam, static_cast<data::Metric>(m));
        EXPECT_DOUBLE_EQ(outcome.diagnosis->attention[j], 0.0);
      }
    }
    break;
  }
  (void)region;
}

}  // namespace
}  // namespace diagnet::agent
