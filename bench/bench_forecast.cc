// Capacity-forecast bench: the planning layer's latency story.
//
// Two measurements, mirroring the capacity-planning pitch (decompose
// history once, extrapolate cheaply):
//   1. Decomposition ingest throughput — TrendSeasonDecomposition::observe
//      over a quarter of diurnal windows, samples/sec (median of 5 passes).
//   2. Forecast latency vs history length — CapacityForecaster::
//      forecast_pool on 7 / 30 / 90 days of raw history, per-pool wall
//      time for a 32-pool fleet.
//
// Writes BENCH_forecast.json and exits non-zero when either margin is lost
// (the Release CI smoke): median ingest below 1e6 samples/s, or a
// quarter-history forecast slower than 0.25 s per pool.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/capacity_forecast.h"
#include "ml/trend_season.h"
#include "query/query_engine.h"
#include "telemetry/metric_store.h"
#include "telemetry/metrics.h"

namespace {

using Clock = std::chrono::steady_clock;
using headroom::core::CapacityForecaster;
using headroom::core::CapacityForecastOptions;
using headroom::core::PoolCapacityForecast;
using headroom::query::QueryEngine;
using headroom::telemetry::MetricKind;
using headroom::telemetry::MetricStore;
using headroom::telemetry::SeriesKey;
using headroom::telemetry::SimTime;

constexpr SimTime kWindow = 120;
constexpr SimTime kDay = 86400;
constexpr SimTime kHistory = 90 * kDay;  ///< A quarter of history.
constexpr std::size_t kPools = 32;
constexpr std::size_t kServersPerPool = 10;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Total pool demand: linear growth under a diurnal swing, per-pool phase.
/// The shape the forecaster is built for — a trend the OLS must find
/// through a season the profile must divide out.
double total_demand(std::size_t pool, SimTime t) {
  const double base = 1500.0 + 4.0 * static_cast<double>(t) / kDay;
  const double phase =
      2.0 * M_PI *
      (static_cast<double>(t % kDay) / kDay + 0.03 * static_cast<double>(pool));
  return base * (1.0 + 0.25 * std::sin(phase));
}

// Time-major, like a live simulator.
void record_fleet(MetricStore* store, SimTime until) {
  for (SimTime t = 0; t < until; t += kWindow) {
    for (std::size_t p = 0; p < kPools; ++p) {
      const SeriesKey rps{0, static_cast<std::uint32_t>(p),
                          SeriesKey::kPoolScope,
                          MetricKind::kRequestsPerSecond};
      const SeriesKey servers{0, static_cast<std::uint32_t>(p),
                              SeriesKey::kPoolScope,
                              MetricKind::kActiveServers};
      store->record(rps, t,
                    total_demand(p, t) / static_cast<double>(kServersPerPool));
      store->record(servers, t, static_cast<double>(kServersPerPool));
    }
  }
}

CapacityForecastOptions forecast_options() {
  CapacityForecastOptions options;
  options.window_seconds = kWindow;
  options.horizon_seconds = 90 * kDay;
  options.critical_seconds = 30 * kDay;
  return options;
}

/// Forecasts every pool in [from, to); returns per-pool mean seconds.
double time_fleet_forecast(const CapacityForecaster& forecaster, SimTime from,
                           SimTime to,
                           std::vector<PoolCapacityForecast>* out) {
  out->clear();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t p = 0; p < kPools; ++p) {
    CapacityForecaster::PoolSpec spec;
    spec.pool = static_cast<std::uint32_t>(p);
    spec.servers = kServersPerPool;
    spec.target_rps_per_server = 400.0;  // capacity 4000 — exhausts mid-horizon
    out->push_back(forecaster.forecast_pool(spec, from, to));
  }
  return seconds_since(t0) / static_cast<double>(kPools);
}

}  // namespace

int main() {
  headroom::bench::header(
      "bench_forecast — capacity-forecast latency",
      "forecasts stay cheap at quarter-scale history");

  headroom::bench::JsonObject json;
  json.str("bench", "forecast")
      .num("pools", kPools)
      .num("window_seconds", static_cast<std::size_t>(kWindow))
      .num("history_days", static_cast<std::size_t>(kHistory / kDay));

  // --- 1. Decomposition ingest throughput --------------------------------
  // One pass takes a few milliseconds, so one scheduler stall could sink a
  // single timing. Gate on the median rate of kPasses fresh decompositions.
  bool decomposition_margin = false;
  {
    constexpr std::size_t kPasses = 5;
    const std::size_t samples = static_cast<std::size_t>(kHistory / kWindow);
    std::vector<double> rates;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      headroom::ml::TrendSeasonDecomposition decomposition{
          headroom::ml::TrendSeasonOptions{}};
      const Clock::time_point t0 = Clock::now();
      for (SimTime t = 0; t < kHistory; t += kWindow) {
        decomposition.observe(t, total_demand(0, t));
      }
      rates.push_back(static_cast<double>(samples) / seconds_since(t0));
    }
    std::sort(rates.begin(), rates.end());
    const double median = rates[kPasses / 2];
    std::printf(
        "  decomposition observe: %zu samples x %zu passes, median %.2e/s, "
        "min %.2e/s\n",
        samples, kPasses, median, rates.front());
    json.num("decomposition_samples_per_sec", median);
    json.num("decomposition_min_samples_per_sec", rates.front());
    decomposition_margin = median >= 1e6;
    json.boolean("decomposition_margin", decomposition_margin);
  }

  // --- 2. Forecast latency vs history length (raw store) -----------------
  MetricStore raw;
  record_fleet(&raw, kHistory);
  const QueryEngine raw_engine(&raw);
  const CapacityForecaster raw_forecaster(&raw_engine, forecast_options());

  double raw_90_seconds = 0.0;
  for (const SimTime days : {SimTime{7}, SimTime{30}, SimTime{90}}) {
    std::vector<PoolCapacityForecast> forecasts;
    const double per_pool =
        time_fleet_forecast(raw_forecaster, 0, days * kDay, &forecasts);
    std::printf("  forecast per pool, %3lld d raw history: %8.3f ms\n",
                static_cast<long long>(days), per_pool * 1e3);
    json.num("raw_forecast_ms_" + std::to_string(days) + "d", per_pool * 1e3);
    if (days == 90) raw_90_seconds = per_pool;
  }

  // Margin: a quarter-history forecast stays interactive (well under a
  // telemetry window).
  const bool latency_margin = raw_90_seconds <= 0.25;
  json.boolean("latency_margin", latency_margin);

  const bool acceptance = latency_margin && decomposition_margin;
  json.boolean("acceptance", acceptance);
  if (!json.write("BENCH_forecast.json")) {
    std::printf("  warning: could not write BENCH_forecast.json\n");
  }
  std::printf("\n  acceptance: %s\n", acceptance ? "PASS" : "FAIL");
  return acceptance ? 0 : 1;
}
