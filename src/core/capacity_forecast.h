// Capacity forecasting: when does each pool run out of headroom, and what
// should be bought.
//
// The paper's pipeline answers "how much headroom do I need now"; this
// layer answers the operator's next question — "when do I run out" — in
// the shape of netdata's Capacity Planning product: a historical window
// feeds a trend x season decomposition (ml/trend_season.h), the forecast
// is extrapolated over a procurement horizon, and the first crossing of
// the pool's capacity line becomes the exhaustion date, bracketed by the
// decomposition's residual-quantile band (earliest = upper band crossing,
// latest = lower). Capacity is the pool's sizing rule inverted:
// servers x target P95 RPS/server, the same operating point
// sim::size_pool provisions to.
//
// History is read exclusively through query::QueryEngine::window_value,
// bit-identical to the raw series. Windows already evicted by retention
// read as dark and are skipped; `history_exact` is false when part of the
// requested range was evicted.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ml/trend_season.h"
#include "query/query_engine.h"

namespace headroom::core {

/// Headroom risk categories, ordered most to least urgent.
enum class HeadroomRisk : std::uint8_t {
  kExhausted,  ///< Demand already at/over capacity in the last window.
  kCritical,   ///< Point-estimate exhaustion inside the critical horizon.
  kWarning,    ///< Point-estimate exhaustion inside the forecast horizon.
  kOk,         ///< No crossing inside the horizon.
  kNoGrowth,   ///< Flat or shrinking trend and no crossing: never exhausts.
};

[[nodiscard]] std::string_view to_string(HeadroomRisk risk) noexcept;

struct CapacityForecastOptions {
  telemetry::SimTime window_seconds = 120;
  /// Forecast horizon past the end of history.
  telemetry::SimTime horizon_seconds = 90 * 86400;
  /// Point-estimate exhaustion inside this bound is kCritical.
  telemetry::SimTime critical_seconds = 30 * 86400;
  /// What-if demand multiplier applied to every forecast (growth sweeps).
  double growth_multiplier = 1.0;
  ml::TrendSeasonOptions decomposition;
};

/// One pool's forecast: capacity line, growth, exhaustion bracket, risk,
/// and the procurement recommendation that clears the horizon peak.
struct PoolCapacityForecast {
  std::uint32_t datacenter = 0;
  std::uint32_t pool = 0;
  std::size_t servers = 0;          ///< Pool size (capacity units).
  double capacity_rps = 0.0;        ///< servers x target RPS/server.
  std::size_t windows_observed = 0; ///< History windows folded in.
  bool history_exact = true;        ///< False: part of the range was evicted.
  double last_demand_rps = 0.0;     ///< Final observed window's total RPS.
  double growth_per_day = 0.0;      ///< Trend slope, demand RPS per day.
  double peak_forecast_rps = 0.0;   ///< Max point forecast over the horizon.
  double peak_upper_rps = 0.0;      ///< Max upper-band forecast.

  /// Point-estimate exhaustion: first forecast window at/over capacity.
  bool exhausts = false;
  telemetry::SimTime exhaustion_time = 0;
  /// Band bracket: upper-band crossing (earliest credible date) and
  /// lower-band crossing (latest). Valid only when the matching flag is
  /// set; a clear earliest with a set latest cannot occur.
  bool earliest_within_horizon = false;
  telemetry::SimTime exhaustion_earliest = 0;
  bool latest_within_horizon = false;
  telemetry::SimTime exhaustion_latest = 0;

  HeadroomRisk risk = HeadroomRisk::kOk;
  /// Servers to add so capacity clears the horizon's upper-band peak.
  std::size_t recommended_additional_servers = 0;
};

class CapacityForecaster {
 public:
  /// What the forecaster needs to know about one pool: identity, size, and
  /// the service's operating point (MicroserviceProfile::
  /// target_rps_per_server_p95 — the sizing rule's denominator).
  struct PoolSpec {
    std::uint32_t datacenter = 0;
    std::uint32_t pool = 0;
    std::size_t servers = 1;
    double target_rps_per_server = 300.0;
  };

  /// `engine` must outlive the forecaster.
  CapacityForecaster(const query::QueryEngine* engine,
                     CapacityForecastOptions options);

  /// Forecasts one pool from its history windows in [from, to) (window
  /// starts on the `window_seconds` grid). Total demand per window is
  /// pool-scope kRequestsPerSecond (mean per-server RPS) x kActiveServers.
  [[nodiscard]] PoolCapacityForecast forecast_pool(const PoolSpec& pool,
                                                   telemetry::SimTime from,
                                                   telemetry::SimTime to) const;

  [[nodiscard]] const CapacityForecastOptions& options() const noexcept {
    return options_;
  }

 private:
  const query::QueryEngine* engine_;
  CapacityForecastOptions options_;
};

/// Machine-readable per-pool report lines (no header; the planning harness
/// prepends its own): one `pool dc=... pool=...` line per forecast, fields
/// formatted with telemetry::format_double, byte-stable.
[[nodiscard]] std::string format_capacity_forecasts(
    const std::vector<PoolCapacityForecast>& forecasts);

}  // namespace headroom::core
