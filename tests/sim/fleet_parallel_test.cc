// Serial-vs-threaded equivalence: for any thread count the fleet simulator
// must produce a bit-identical MetricStore, AvailabilityLedger, CPU sample
// histogram, and server-day digest list (ISSUE 2 acceptance criterion).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "sim/fleet.h"

namespace headroom::sim {
namespace {

constexpr telemetry::SimTime kDay = 86400;
using telemetry::MetricKind;
using telemetry::SeriesKey;

/// Multi-DC fleet with the full event mix: maintenance, a pool incident,
/// a DC outage, and a flash-crowd traffic multiplier.
FleetConfig eventful_config(const MicroserviceCatalog& catalog,
                            std::size_t datacenters = 4,
                            std::size_t servers = 12) {
  FleetConfig config =
      multi_dc_pool_fleet(catalog, "B", datacenters, servers, 11);
  // Give one pool a non-trivial maintenance mix and an incident day.
  auto& pool0 = config.datacenters[0].pools[0];
  pool0.maintenance.deploy_offline_hours = 1.2;
  pool0.maintenance.infra_event_daily_prob = 0.1;
  pool0.incidents.push_back(
      {.day = 0, .offline_fraction = 0.25, .start_hour = 6.0,
       .duration_hours = 3.0});
  // Outage: DC1 dark for two hours; survivors absorb its traffic.
  workload::CapacityEvent outage;
  outage.kind = workload::EventKind::kDatacenterOutage;
  outage.start = 10 * 3600;
  outage.end = 12 * 3600;
  outage.datacenter = 1;
  config.events.add(outage);
  // Flash crowd on DC2.
  workload::CapacityEvent surge;
  surge.kind = workload::EventKind::kTrafficMultiplier;
  surge.start = 15 * 3600;
  surge.end = 16 * 3600;
  surge.multiplier = 3.0;
  surge.datacenter = 2;
  config.events.add(surge);
  return config;
}

bool key_less(const SeriesKey& a, const SeriesKey& b) {
  return std::tuple(a.datacenter, a.pool, a.server,
                    static_cast<int>(a.metric)) <
         std::tuple(b.datacenter, b.pool, b.server, static_cast<int>(b.metric));
}

void expect_identical(const FleetSimulator& a, const FleetSimulator& b) {
  // MetricStore: same keys, and every series bit-identical.
  std::vector<SeriesKey> keys_a = a.store().keys();
  std::vector<SeriesKey> keys_b = b.store().keys();
  std::sort(keys_a.begin(), keys_a.end(), key_less);
  std::sort(keys_b.begin(), keys_b.end(), key_less);
  ASSERT_EQ(keys_a.size(), keys_b.size());
  for (std::size_t i = 0; i < keys_a.size(); ++i) {
    ASSERT_TRUE(keys_a[i] == keys_b[i]);
  }
  EXPECT_EQ(a.store().sample_count(), b.store().sample_count());
  for (const SeriesKey& key : keys_a) {
    const auto& sa = a.store().series(key);
    const auto& sb = b.store().series(key);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa.at(i).window_start, sb.at(i).window_start);
      EXPECT_DOUBLE_EQ(sa.at(i).value, sb.at(i).value);  // exact equality
    }
  }

  // AvailabilityLedger: day totals are integer-second sums.
  EXPECT_DOUBLE_EQ(a.ledger().fleet_average(), b.ledger().fleet_average());
  std::vector<double> daily_a = a.ledger().all_daily_availabilities();
  std::vector<double> daily_b = b.ledger().all_daily_availabilities();
  std::sort(daily_a.begin(), daily_a.end());
  std::sort(daily_b.begin(), daily_b.end());
  ASSERT_EQ(daily_a.size(), daily_b.size());
  for (std::size_t i = 0; i < daily_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(daily_a[i], daily_b[i]);
  }

  // Fleet-wide CPU sample histogram.
  ASSERT_EQ(a.cpu_sample_histogram().bin_count(),
            b.cpu_sample_histogram().bin_count());
  EXPECT_EQ(a.cpu_sample_histogram().total(), b.cpu_sample_histogram().total());
  for (std::size_t i = 0; i < a.cpu_sample_histogram().bin_count(); ++i) {
    EXPECT_EQ(a.cpu_sample_histogram().count_in_bin(i),
              b.cpu_sample_histogram().count_in_bin(i));
  }

  // Per-server-day digests (flushed on the main thread in pool order).
  ASSERT_EQ(a.server_day_cpu().size(), b.server_day_cpu().size());
  for (std::size_t i = 0; i < a.server_day_cpu().size(); ++i) {
    const ServerDayCpu& da = a.server_day_cpu()[i];
    const ServerDayCpu& db = b.server_day_cpu()[i];
    EXPECT_EQ(da.datacenter, db.datacenter);
    EXPECT_EQ(da.pool, db.pool);
    EXPECT_EQ(da.server, db.server);
    EXPECT_EQ(da.day, db.day);
    EXPECT_EQ(da.cpu.count, db.cpu.count);
    EXPECT_DOUBLE_EQ(da.cpu.p5, db.cpu.p5);
    EXPECT_DOUBLE_EQ(da.cpu.p50, db.cpu.p50);
    EXPECT_DOUBLE_EQ(da.cpu.p95, db.cpu.p95);
    EXPECT_DOUBLE_EQ(da.cpu.mean, db.cpu.mean);
    EXPECT_DOUBLE_EQ(da.cpu.max, db.cpu.max);
  }
}

TEST(FleetParallel, ThreadedMatchesSerialWithOutageAndMaintenance) {
  const MicroserviceCatalog catalog;
  FleetConfig serial_cfg = eventful_config(catalog);
  serial_cfg.threads = 1;
  FleetConfig par_cfg = eventful_config(catalog);
  par_cfg.threads = 4;

  FleetSimulator serial(std::move(serial_cfg), catalog);
  FleetSimulator parallel(std::move(par_cfg), catalog);
  EXPECT_EQ(serial.thread_count(), 1u);
  EXPECT_EQ(parallel.thread_count(), 4u);

  serial.run_until(kDay + kDay / 2);
  parallel.run_until(kDay + kDay / 2);
  serial.finish_day();
  parallel.finish_day();
  expect_identical(serial, parallel);
}

TEST(FleetParallel, SetServingCountMidRunUnderThreads) {
  const MicroserviceCatalog catalog;
  FleetConfig serial_cfg = eventful_config(catalog);
  serial_cfg.threads = 1;
  FleetConfig par_cfg = eventful_config(catalog);
  par_cfg.threads = 3;

  FleetSimulator serial(std::move(serial_cfg), catalog);
  FleetSimulator parallel(std::move(par_cfg), catalog);

  serial.run_until(kDay);
  parallel.run_until(kDay);
  serial.set_serving_count(0, 0, 8);  // -33% reduction experiment
  parallel.set_serving_count(0, 0, 8);
  serial.run_until(2 * kDay);
  parallel.run_until(2 * kDay);
  serial.finish_day();
  parallel.finish_day();
  expect_identical(serial, parallel);

  // The reduction semantics survive the parallel path: per-server load rose.
  const auto& series =
      parallel.store().pool_series(0, 0, MetricKind::kRequestsPerSecond);
  const auto before = series.values_between(0, kDay);
  const auto after = series.values_between(kDay, 2 * kDay);
  double peak_before = 0.0;
  double peak_after = 0.0;
  for (double v : before) peak_before = std::max(peak_before, v);
  for (double v : after) peak_after = std::max(peak_after, v);
  EXPECT_GT(peak_after / peak_before, 1.2);
}

TEST(FleetParallel, ThreadCountClampsToPoolCount) {
  const MicroserviceCatalog catalog;
  FleetConfig config = multi_dc_pool_fleet(catalog, "D", 2, 6, 3);
  config.threads = 16;  // only 2 pools exist
  const FleetSimulator fleet(std::move(config), catalog);
  EXPECT_EQ(fleet.thread_count(), 2u);
}

TEST(FleetParallel, ZeroThreadsResolvesToHardwareConcurrency) {
  const MicroserviceCatalog catalog;
  FleetConfig config = multi_dc_pool_fleet(catalog, "D", 3, 6, 3);
  config.threads = 0;
  const FleetSimulator fleet(std::move(config), catalog);
  EXPECT_GE(fleet.thread_count(), 1u);
  EXPECT_LE(fleet.thread_count(), 3u);  // clamped to the pool count
}

TEST(FleetParallel, ManyThreadCountsAgreeOnShortRun) {
  const MicroserviceCatalog catalog;
  FleetConfig base = eventful_config(catalog, 3, 8);
  base.threads = 1;
  FleetSimulator serial(std::move(base), catalog);
  serial.run_until(6 * 3600);
  for (const std::size_t threads : {2u, 3u, 5u}) {
    FleetConfig cfg = eventful_config(catalog, 3, 8);
    cfg.threads = threads;
    FleetSimulator par(std::move(cfg), catalog);
    par.run_until(6 * 3600);
    expect_identical(serial, par);
  }
}

}  // namespace
}  // namespace headroom::sim
