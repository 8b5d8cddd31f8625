#include "sim/fleet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stats/linear_model.h"
#include "stats/percentile.h"

namespace headroom::sim {
namespace {

constexpr telemetry::SimTime kDay = 86400;
using telemetry::MetricKind;

// Small single-DC, single-pool config for focused tests.
FleetConfig tiny_config(const MicroserviceCatalog& catalog,
                        const std::string& service = "B",
                        std::size_t servers = 20) {
  FleetConfig config;
  DatacenterConfig dc;
  dc.name = "DC1";
  dc.demand_weight = 1.0;
  PoolConfig pool;
  pool.service = service;
  pool.servers = servers;
  pool.maintenance = MaintenancePolicy{.deploy_offline_hours = 0.0,
                                       .repurpose_fraction = 0.0,
                                       .repurpose_start_hour = 1.0,
                                       .repurpose_hours = 0.0,
                                       .infra_event_daily_prob = 0.0,
                                       .infra_event_hours = 0.0};
  dc.pools.push_back(pool);
  config.datacenters.push_back(dc);
  const MicroserviceProfile& profile = catalog.by_name(service);
  config.diurnal.peak_rps =
      profile.target_rps_per_server_p95 * static_cast<double>(servers) /
      profile.request_fan;
  config.diurnal.trough_fraction = 0.45;
  config.diurnal.noise_sigma = 0.02;
  config.seed = 5;
  return config;
}

TEST(FleetSimulator, RejectsEmptyTopology) {
  const MicroserviceCatalog catalog;
  FleetConfig config;
  EXPECT_THROW(FleetSimulator(std::move(config), catalog),
               std::invalid_argument);
}

TEST(FleetSimulator, RunAdvancesClockByWindows) {
  const MicroserviceCatalog catalog;
  FleetSimulator fleet(tiny_config(catalog), catalog);
  EXPECT_EQ(fleet.now(), 0);
  fleet.run_until(600);
  EXPECT_EQ(fleet.now(), 600);  // 5 windows of 120 s
}

TEST(FleetSimulator, EmitsPoolSeriesPerWindow) {
  const MicroserviceCatalog catalog;
  FleetSimulator fleet(tiny_config(catalog), catalog);
  fleet.run_until(1200);
  const auto& rps =
      fleet.store().pool_series(0, 0, MetricKind::kRequestsPerSecond);
  EXPECT_EQ(rps.size(), 10u);
}

TEST(FleetSimulator, CpuTracksPaperLinearModel) {
  const MicroserviceCatalog catalog;
  FleetSimulator fleet(tiny_config(catalog), catalog);
  fleet.run_until(kDay);
  const auto scatter = fleet.store().pool_scatter(
      0, 0, MetricKind::kRequestsPerSecond, MetricKind::kCpuPercentAttributed);
  const stats::LinearFit fit = stats::fit_linear(scatter.x, scatter.y);
  EXPECT_NEAR(fit.slope, 0.028, 0.002);     // Fig. 8
  EXPECT_NEAR(fit.intercept, 1.37, 0.25);   // Fig. 8
  EXPECT_GT(fit.r_squared, 0.95);
}

TEST(FleetSimulator, PerServerLoadNearTargetAtPeak) {
  const MicroserviceCatalog catalog;
  FleetSimulator fleet(tiny_config(catalog), catalog);
  fleet.run_until(kDay);
  const auto rps =
      fleet.store().pool_series(0, 0, MetricKind::kRequestsPerSecond).values();
  EXPECT_NEAR(stats::percentile(rps, 95.0), 377.0, 25.0);
}

TEST(FleetSimulator, ServingCountReductionRaisesPerServerLoad) {
  const MicroserviceCatalog catalog;
  FleetSimulator fleet(tiny_config(catalog), catalog);
  fleet.run_until(kDay);
  fleet.set_serving_count(0, 0, 14);  // -30%
  fleet.run_until(2 * kDay);
  const auto& series =
      fleet.store().pool_series(0, 0, MetricKind::kRequestsPerSecond);
  const auto before = series.values_between(0, kDay);
  const auto after = series.values_between(kDay, 2 * kDay);
  const double p95_before = stats::percentile(before, 95.0);
  const double p95_after = stats::percentile(after, 95.0);
  // Table II: the 30% reduction raises per-server RPS by ~43%+.
  EXPECT_GT(p95_after / p95_before, 1.35);
}

TEST(FleetSimulator, ServingCountValidation) {
  const MicroserviceCatalog catalog;
  FleetSimulator fleet(tiny_config(catalog), catalog);
  EXPECT_THROW(fleet.set_serving_count(0, 0, 0), std::invalid_argument);
  EXPECT_THROW(fleet.set_serving_count(0, 0, 21), std::invalid_argument);
  EXPECT_THROW(fleet.set_serving_count(0, 9, 5), std::out_of_range);
  EXPECT_EQ(fleet.pool_size(0, 0), 20u);
  fleet.set_serving_count(0, 0, 10);
  EXPECT_EQ(fleet.serving_count(0, 0), 10u);
}

TEST(FleetSimulator, ActiveServersMetricReflectsReduction) {
  const MicroserviceCatalog catalog;
  FleetSimulator fleet(tiny_config(catalog), catalog);
  fleet.set_serving_count(0, 0, 12);
  fleet.run_until(600);
  const auto active =
      fleet.store().pool_series(0, 0, MetricKind::kActiveServers).values();
  for (double a : active) EXPECT_DOUBLE_EQ(a, 12.0);
}

TEST(FleetSimulator, DeterministicForFixedSeed) {
  const MicroserviceCatalog catalog;
  FleetSimulator a(tiny_config(catalog), catalog);
  FleetSimulator b(tiny_config(catalog), catalog);
  a.run_until(3600);
  b.run_until(3600);
  const auto va =
      a.store().pool_series(0, 0, MetricKind::kLatencyP95Ms).values();
  const auto vb =
      b.store().pool_series(0, 0, MetricKind::kLatencyP95Ms).values();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_DOUBLE_EQ(va[i], vb[i]);
  }
}

TEST(FleetSimulator, DatacenterOutageRedistributesTraffic) {
  const MicroserviceCatalog catalog;
  StandardFleetOptions opt;
  opt.services = {"D"};
  opt.regional_peak_rps = 2000.0;
  FleetConfig config = standard_fleet(catalog, opt);
  workload::CapacityEvent outage;
  outage.kind = workload::EventKind::kDatacenterOutage;
  outage.start = 10 * 3600;
  outage.end = 12 * 3600;  // the paper's two-hour event
  outage.datacenter = 0;
  config.events.add(outage);
  const FleetSimulator fleet(std::move(config), catalog);

  const double before = fleet.datacenter_demand(9 * 3600, 0);
  EXPECT_GT(before, 0.0);
  EXPECT_EQ(fleet.datacenter_demand(11 * 3600, 0), 0.0);
  // Survivors absorb the orphaned demand: global sum is conserved.
  double total_during = 0.0;
  double total_before = 0.0;
  for (std::uint32_t dc = 0; dc < 9; ++dc) {
    total_before += fleet.datacenter_demand(9 * 3600, dc);
    total_during += fleet.datacenter_demand(11 * 3600, dc);
  }
  // Demand moves with time of day; compare against the same instant's
  // no-outage sum via a twin simulator.
  StandardFleetOptions opt2;
  opt2.services = {"D"};
  opt2.regional_peak_rps = 2000.0;
  const FleetSimulator no_outage(standard_fleet(catalog, opt2), catalog);
  double expected_during = 0.0;
  for (std::uint32_t dc = 0; dc < 9; ++dc) {
    expected_during += no_outage.datacenter_demand(11 * 3600, dc);
  }
  EXPECT_NEAR(total_during, expected_during, expected_during * 1e-9);
  // And at least one survivor sees a large increase (nearest neighbour).
  double max_increase = 0.0;
  for (std::uint32_t dc = 1; dc < 9; ++dc) {
    const double base = no_outage.datacenter_demand(11 * 3600, dc);
    const double with = fleet.datacenter_demand(11 * 3600, dc);
    max_increase = std::max(max_increase, with / base - 1.0);
  }
  EXPECT_GT(max_increase, 0.20);
}

TEST(FleetSimulator, TrafficMultiplierScalesDemand) {
  const MicroserviceCatalog catalog;
  FleetConfig config = tiny_config(catalog);
  workload::CapacityEvent surge;
  surge.kind = workload::EventKind::kTrafficMultiplier;
  surge.start = 0;
  surge.end = 3600;
  surge.multiplier = 4.0;  // Fig. 6's event
  surge.datacenter = 0;
  config.events.add(surge);
  const MicroserviceCatalog catalog2;
  FleetSimulator fleet(std::move(config), catalog2);
  const double during = fleet.datacenter_demand(1800, 0);
  const double after = fleet.datacenter_demand(1800 + 86400, 0);
  EXPECT_NEAR(during / after, 4.0, 1e-9);
}

TEST(FleetSimulator, AvailabilityLedgerSeesMaintenance) {
  const MicroserviceCatalog catalog;
  FleetConfig config = tiny_config(catalog);
  config.datacenters[0].pools[0].maintenance.deploy_offline_hours = 2.4;
  FleetSimulator fleet(std::move(config), catalog);
  fleet.run_until(2 * kDay);
  EXPECT_NEAR(fleet.ledger().fleet_average(), 0.90, 0.02);
}

TEST(FleetSimulator, ServerDayDigestsFlushOnDayBoundary) {
  const MicroserviceCatalog catalog;
  FleetSimulator fleet(tiny_config(catalog), catalog);
  fleet.run_until(kDay + 600);
  // Day 0 closed: 20 servers' digests recorded.
  EXPECT_EQ(fleet.server_day_cpu().size(), 20u);
  fleet.finish_day();
  EXPECT_EQ(fleet.server_day_cpu().size(), 40u);
}

TEST(FleetSimulator, AttributionOffMakesCpuMetricNoisy) {
  const MicroserviceCatalog catalog;
  FleetConfig with = tiny_config(catalog, "A", 10);  // A has hourly spikes
  with.attribution_enabled = true;
  FleetConfig without = tiny_config(catalog, "A", 10);
  without.attribution_enabled = false;
  FleetSimulator fa(std::move(with), catalog);
  FleetSimulator fb(std::move(without), catalog);
  fa.run_until(kDay);
  fb.run_until(kDay);
  const auto fit_of = [](const FleetSimulator& f) {
    const auto scatter = f.store().pool_scatter(
        0, 0, MetricKind::kRequestsPerSecond,
        MetricKind::kCpuPercentAttributed);
    return stats::fit_linear(scatter.x, scatter.y);
  };
  // The paper's Step-1 lesson: blind measurement degrades the fit.
  EXPECT_GT(fit_of(fa).r_squared, fit_of(fb).r_squared + 0.02);
}

TEST(FleetSimulator, TotalsAccountants) {
  const MicroserviceCatalog catalog;
  const FleetSimulator fleet(tiny_config(catalog), catalog);
  EXPECT_EQ(fleet.total_pools(), 1u);
  EXPECT_EQ(fleet.total_servers(), 20u);
}

TEST(FleetSimulator, OutageOfTheOnlyDatacenterStaysFinite) {
  // When every DC is down the failover math has no survivor to shift
  // traffic onto: the orphaned demand must be dropped (not divided by a
  // zero total share), demand must read exactly 0, and the telemetry the
  // pool emitted before/after the outage must stay finite.
  const MicroserviceCatalog catalog;
  FleetConfig config = tiny_config(catalog);
  workload::CapacityEvent outage;
  outage.kind = workload::EventKind::kDatacenterOutage;
  outage.start = 2 * 3600;
  outage.end = 4 * 3600;
  outage.datacenter = 0;  // the only DC there is
  config.events.add(outage);
  FleetSimulator fleet(std::move(config), catalog);

  EXPECT_GT(fleet.datacenter_demand(3600, 0), 0.0);
  EXPECT_EQ(fleet.datacenter_demand(2 * 3600, 0), 0.0);
  EXPECT_EQ(fleet.datacenter_demand(3 * 3600, 0), 0.0);
  EXPECT_GT(fleet.datacenter_demand(4 * 3600, 0), 0.0);

  fleet.run_until(6 * 3600);
  for (const MetricKind kind :
       {MetricKind::kRequestsPerSecond, MetricKind::kCpuPercentTotal,
        MetricKind::kLatencyP95Ms}) {
    for (const double v : fleet.store().pool_series(0, 0, kind).values()) {
      EXPECT_TRUE(std::isfinite(v))
          << "non-finite " << telemetry::to_string(kind) << " sample";
      EXPECT_GE(v, 0.0);
    }
  }
  // Servers keep running during the demand blackout (the outage empties
  // the request stream, it does not break the fleet's bookkeeping).
  const auto rps =
      fleet.store().pool_series(0, 0, MetricKind::kRequestsPerSecond).values();
  EXPECT_EQ(rps.size(), 6u * 3600u / 120u);
}

TEST(FleetSimulator, FailoverConcentratesOnNearestSurvivor) {
  // Two far-apart DCs plus one adjacent to the failed region: the nearby
  // survivor must absorb the larger share (the paper's +127% neighbour),
  // and total demand must be conserved across the failover.
  const MicroserviceCatalog catalog;
  FleetConfig config = tiny_config(catalog);
  config.datacenters[0].timezone_offset_hours = -8.0;
  DatacenterConfig near = config.datacenters[0];
  near.name = "DC2";
  near.timezone_offset_hours = -5.0;
  DatacenterConfig far = config.datacenters[0];
  far.name = "DC3";
  far.timezone_offset_hours = 8.0;
  config.datacenters.push_back(near);
  config.datacenters.push_back(far);
  workload::CapacityEvent outage;
  outage.kind = workload::EventKind::kDatacenterOutage;
  outage.start = 0;
  outage.end = 3600;
  outage.datacenter = 0;
  config.events.add(outage);
  const FleetSimulator fleet(std::move(config), catalog);

  FleetConfig baseline_config = tiny_config(catalog);
  baseline_config.datacenters[0].timezone_offset_hours = -8.0;
  baseline_config.datacenters.push_back(near);
  baseline_config.datacenters.push_back(far);
  const FleetSimulator baseline(std::move(baseline_config), catalog);

  const telemetry::SimTime t = 1800;
  const double orphaned = baseline.datacenter_demand(t, 0);
  const double near_gain =
      fleet.datacenter_demand(t, 1) - baseline.datacenter_demand(t, 1);
  const double far_gain =
      fleet.datacenter_demand(t, 2) - baseline.datacenter_demand(t, 2);
  EXPECT_GT(near_gain, far_gain);
  EXPECT_NEAR(near_gain + far_gain, orphaned, 1e-9 * orphaned);
}

}  // namespace
}  // namespace headroom::sim
