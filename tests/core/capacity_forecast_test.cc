// CapacityForecaster: exhaustion dates with bands over QueryEngine-read
// history. The synthetic linear-growth case pins the forecast against the
// analytic crossing; the eviction case pins that evicted windows are
// flagged and skipped, leaving the surviving windows' forecast unchanged.
#include "core/capacity_forecast.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "telemetry/metric_store.h"
#include "telemetry/metrics.h"

namespace headroom::core {
namespace {

using telemetry::MetricKind;
using telemetry::MetricStore;
using telemetry::SeriesKey;
using telemetry::SimTime;

constexpr SimTime kWindow = 120;
const SeriesKey kRps{0, 0, SeriesKey::kPoolScope,
                     MetricKind::kRequestsPerSecond};
const SeriesKey kServers{0, 0, SeriesKey::kPoolScope,
                         MetricKind::kActiveServers};

/// Records a pool whose TOTAL demand is 100 + 0.01 t RPS, served by 10
/// online servers (pool-scope kRequestsPerSecond is mean per-server RPS).
void record_linear_history(MetricStore* store, SimTime until) {
  for (SimTime t = 0; t < until; t += kWindow) {
    const double total = 100.0 + 0.01 * static_cast<double>(t);
    store->record(kRps, t, total / 10.0);
    store->record(kServers, t, 10.0);
  }
}

CapacityForecaster::PoolSpec ten_server_pool() {
  CapacityForecaster::PoolSpec pool;
  pool.servers = 10;
  pool.target_rps_per_server = 20.0;  // capacity line at 200 total RPS
  return pool;
}

TEST(CapacityForecaster, RejectsBadConstruction) {
  MetricStore store;
  const query::QueryEngine engine(&store);
  EXPECT_THROW(CapacityForecaster(nullptr, {}), std::invalid_argument);
  CapacityForecastOptions bad;
  bad.window_seconds = 0;
  EXPECT_THROW(CapacityForecaster(&engine, bad), std::invalid_argument);
  bad = {};
  bad.critical_seconds = bad.horizon_seconds + 1;
  EXPECT_THROW(CapacityForecaster(&engine, bad), std::invalid_argument);
  bad = {};
  bad.growth_multiplier = 0.0;
  EXPECT_THROW(CapacityForecaster(&engine, bad), std::invalid_argument);

  const CapacityForecaster forecaster(&engine, {});
  CapacityForecaster::PoolSpec empty;
  empty.servers = 0;
  EXPECT_THROW((void)forecaster.forecast_pool(empty, 0, 7200),
               std::invalid_argument);
}

TEST(CapacityForecaster, LinearGrowthExhaustionMatchesAnalyticAnswer) {
  // demand(t) = 100 + 0.01 t crosses the 200 RPS capacity line at exactly
  // t* = 10000 s. History stops at 7200 s; the forecast's crossing must
  // land within one window of t*, and the band must bracket it.
  MetricStore store;
  record_linear_history(&store, 7200);
  const query::QueryEngine engine(&store);

  CapacityForecastOptions options;
  options.window_seconds = kWindow;
  options.horizon_seconds = 86400;
  options.critical_seconds = 86400;
  const CapacityForecaster forecaster(&engine, options);

  const PoolCapacityForecast f =
      forecaster.forecast_pool(ten_server_pool(), 0, 7200);
  EXPECT_EQ(f.windows_observed, 60u);
  EXPECT_TRUE(f.history_exact);
  EXPECT_DOUBLE_EQ(f.capacity_rps, 200.0);
  EXPECT_NEAR(f.last_demand_rps, 100.0 + 0.01 * 7080.0, 1e-9);
  EXPECT_NEAR(f.growth_per_day, 0.01 * 86400.0, 1e-6);

  constexpr double kAnalytic = 10000.0;
  ASSERT_TRUE(f.exhausts);
  EXPECT_LE(std::abs(static_cast<double>(f.exhaustion_time) - kAnalytic),
            static_cast<double>(kWindow))
      << "crossing must land within one window of the analytic date";
  ASSERT_TRUE(f.earliest_within_horizon);
  ASSERT_TRUE(f.latest_within_horizon);
  EXPECT_LE(f.exhaustion_earliest, f.exhaustion_time);
  EXPECT_GE(f.exhaustion_latest, f.exhaustion_time);
  EXPECT_LE(static_cast<double>(f.exhaustion_earliest),
            kAnalytic + static_cast<double>(kWindow));
  EXPECT_GE(static_cast<double>(f.exhaustion_latest),
            kAnalytic - static_cast<double>(kWindow))
      << "band must contain the analytic crossing";

  EXPECT_EQ(f.risk, HeadroomRisk::kCritical) << "crossing inside critical";
  EXPECT_GT(f.recommended_additional_servers, 0u);
  // Buying the recommendation clears the horizon's upper-band peak.
  const double new_capacity =
      static_cast<double>(f.servers + f.recommended_additional_servers) * 20.0;
  EXPECT_GE(new_capacity, f.peak_upper_rps);
}

TEST(CapacityForecaster, RiskCategories) {
  MetricStore store;
  record_linear_history(&store, 7200);
  const query::QueryEngine engine(&store);

  CapacityForecastOptions options;
  options.window_seconds = kWindow;
  options.horizon_seconds = 86400;
  options.critical_seconds = 1800;  // crossing ~2900 s out is past critical
  const CapacityForecaster forecaster(&engine, options);
  const PoolCapacityForecast warning =
      forecaster.forecast_pool(ten_server_pool(), 0, 7200);
  EXPECT_EQ(warning.risk, HeadroomRisk::kWarning);

  // Demand already over the line -> exhausted.
  CapacityForecaster::PoolSpec tiny = ten_server_pool();
  tiny.servers = 5;  // capacity 100 < last demand 170.8
  const PoolCapacityForecast exhausted =
      forecaster.forecast_pool(tiny, 0, 7200);
  EXPECT_EQ(exhausted.risk, HeadroomRisk::kExhausted);

  // Huge pool, growing demand, crossing beyond the horizon -> ok.
  CapacityForecaster::PoolSpec huge = ten_server_pool();
  huge.servers = 1000;
  const PoolCapacityForecast ok = forecaster.forecast_pool(huge, 0, 7200);
  EXPECT_FALSE(ok.exhausts);
  EXPECT_EQ(ok.risk, HeadroomRisk::kOk);
  EXPECT_EQ(ok.recommended_additional_servers, 0u);

  // Shrinking demand -> no_growth.
  MetricStore shrinking;
  for (SimTime t = 0; t < 7200; t += kWindow) {
    shrinking.record(kRps, t, (150.0 - 0.005 * static_cast<double>(t)) / 10.0);
    shrinking.record(kServers, t, 10.0);
  }
  const query::QueryEngine shrink_engine(&shrinking);
  const CapacityForecaster shrink_forecaster(&shrink_engine, options);
  const PoolCapacityForecast flat =
      shrink_forecaster.forecast_pool(ten_server_pool(), 0, 7200);
  EXPECT_LT(flat.growth_per_day, 0.0);
  EXPECT_EQ(flat.risk, HeadroomRisk::kNoGrowth);
}

TEST(CapacityForecaster, GrowthMultiplierScalesTheWhatIf) {
  MetricStore store;
  record_linear_history(&store, 7200);
  const query::QueryEngine engine(&store);

  CapacityForecastOptions options;
  options.window_seconds = kWindow;
  options.horizon_seconds = 86400;
  options.critical_seconds = 86400;
  const CapacityForecaster base(&engine, options);
  options.growth_multiplier = 2.0;
  const CapacityForecaster doubled(&engine, options);

  const PoolCapacityForecast f1 =
      base.forecast_pool(ten_server_pool(), 0, 7200);
  const PoolCapacityForecast f2 =
      doubled.forecast_pool(ten_server_pool(), 0, 7200);
  EXPECT_DOUBLE_EQ(f2.last_demand_rps, 2.0 * f1.last_demand_rps);
  EXPECT_DOUBLE_EQ(f2.growth_per_day, 2.0 * f1.growth_per_day);
  EXPECT_DOUBLE_EQ(f2.peak_forecast_rps, 2.0 * f1.peak_forecast_rps);
  // Doubled demand is over the 200 RPS line from the start.
  EXPECT_EQ(f2.risk, HeadroomRisk::kExhausted);
  ASSERT_TRUE(f2.exhausts);
  EXPECT_LE(f2.exhaustion_time, f1.exhaustion_time);
}

TEST(CapacityForecaster, DarkWindowsAreSkippedNotZeroed) {
  MetricStore store;
  for (SimTime t = 0; t < 7200; t += kWindow) {
    if (t >= 2400 && t < 3600) continue;  // a 20-minute outage gap
    store.record(kRps, t, 10.0);
    store.record(kServers, t, 10.0);
  }
  const query::QueryEngine engine(&store);
  CapacityForecastOptions options;
  options.window_seconds = kWindow;
  const CapacityForecaster forecaster(&engine, options);
  const PoolCapacityForecast f =
      forecaster.forecast_pool(ten_server_pool(), 0, 7200);
  EXPECT_EQ(f.windows_observed, 50u);  // 60 minus the 10 dark windows
  // Flat 100 RPS against a 200 RPS line: nothing exhausts.
  EXPECT_FALSE(f.exhausts);
}

TEST(CapacityForecaster, EvictedHistoryIsFlaggedAndSkipped) {
  // Two identical histories; one store evicts raw aggressively. Evicted
  // windows read as dark, so forecasting the whole range on the evicted
  // store must equal forecasting only the surviving windows on the full
  // store — flagged inexact, and otherwise bit-identical.
  constexpr SimTime kEnd = 2 * 86400;
  MetricStore raw;
  record_linear_history(&raw, kEnd);

  MetricStore evicted;
  evicted.set_retention(3600);
  record_linear_history(&evicted, kEnd);
  const SimTime cutoff = evicted.evicted_before();
  ASSERT_GT(cutoff, 0);

  const query::QueryEngine raw_engine(&raw);
  const query::QueryEngine evicted_engine(&evicted);
  ASSERT_TRUE(raw_engine.raw_covers(0, kEnd));
  ASSERT_FALSE(evicted_engine.raw_covers(0, kEnd));

  CapacityForecastOptions options;
  options.window_seconds = kWindow;
  options.horizon_seconds = 86400;
  options.critical_seconds = 86400;
  const CapacityForecaster raw_forecaster(&raw_engine, options);
  const CapacityForecaster evicted_forecaster(&evicted_engine, options);

  const PoolCapacityForecast a =
      raw_forecaster.forecast_pool(ten_server_pool(), cutoff, kEnd);
  const PoolCapacityForecast b =
      evicted_forecaster.forecast_pool(ten_server_pool(), 0, kEnd);

  EXPECT_TRUE(a.history_exact);
  EXPECT_FALSE(b.history_exact) << "evicted history must be flagged";
  EXPECT_EQ(b.windows_observed,
            static_cast<std::size_t>((kEnd - cutoff) / kWindow));
  EXPECT_EQ(a.windows_observed, b.windows_observed);

  // The formatted report lines agree except for the history_exact flag.
  std::string line_a = format_capacity_forecasts({a});
  std::string line_b = format_capacity_forecasts({b});
  const auto scrub = [](std::string* s) {
    const std::size_t pos = s->find(" history_exact = ");
    const std::size_t end = s->find(" last_demand_rps", pos);
    s->erase(pos, end - pos);
  };
  scrub(&line_a);
  scrub(&line_b);
  EXPECT_EQ(line_a, line_b);
}

TEST(CapacityForecastFormat, LinesAreMachineReadable) {
  MetricStore store;
  record_linear_history(&store, 7200);
  const query::QueryEngine engine(&store);
  CapacityForecastOptions options;
  options.window_seconds = kWindow;
  const CapacityForecaster forecaster(&engine, options);
  const PoolCapacityForecast f =
      forecaster.forecast_pool(ten_server_pool(), 0, 7200);

  const std::string text = format_capacity_forecasts({f});
  EXPECT_EQ(text.rfind("pool dc=0 pool=0 ", 0), 0u) << text;
  for (const char* field :
       {" servers = ", " capacity_rps = ", " windows = ", " history_exact = ",
        " last_demand_rps = ", " growth_per_day = ", " peak_forecast_rps = ",
        " peak_upper_rps = ", " exhaustion = ", " earliest = ", " latest = ",
        " risk = ", " buy_servers = "}) {
    EXPECT_NE(text.find(field), std::string::npos) << field;
  }
  EXPECT_EQ(format_capacity_forecasts({}), "");
}

}  // namespace
}  // namespace headroom::core
