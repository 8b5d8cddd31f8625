#include "core/capacity_forecast.h"

#include <cmath>
#include <stdexcept>

#include "telemetry/csv.h"
#include "telemetry/metrics.h"

namespace headroom::core {

using telemetry::MetricKind;
using telemetry::SeriesKey;
using telemetry::SimTime;

std::string_view to_string(HeadroomRisk risk) noexcept {
  switch (risk) {
    case HeadroomRisk::kExhausted: return "exhausted";
    case HeadroomRisk::kCritical: return "critical";
    case HeadroomRisk::kWarning: return "warning";
    case HeadroomRisk::kOk: return "ok";
    case HeadroomRisk::kNoGrowth: return "no_growth";
  }
  return "ok";
}

CapacityForecaster::CapacityForecaster(const query::QueryEngine* engine,
                                       CapacityForecastOptions options)
    : engine_(engine), options_(options) {
  if (engine_ == nullptr) {
    throw std::invalid_argument("CapacityForecaster: null query engine");
  }
  if (options_.window_seconds <= 0) {
    throw std::invalid_argument(
        "CapacityForecaster: window_seconds must be positive");
  }
  if (options_.horizon_seconds <= 0 ||
      options_.critical_seconds > options_.horizon_seconds) {
    throw std::invalid_argument(
        "CapacityForecaster: need 0 < critical <= horizon");
  }
  if (options_.growth_multiplier <= 0.0) {
    throw std::invalid_argument(
        "CapacityForecaster: growth multiplier must be positive");
  }
}

PoolCapacityForecast CapacityForecaster::forecast_pool(const PoolSpec& pool,
                                                       SimTime from,
                                                       SimTime to) const {
  if (pool.servers == 0 || pool.target_rps_per_server <= 0.0) {
    throw std::invalid_argument("CapacityForecaster: bad pool spec");
  }
  const SimTime window = options_.window_seconds;

  PoolCapacityForecast out;
  out.datacenter = pool.datacenter;
  out.pool = pool.pool;
  out.servers = pool.servers;
  out.capacity_rps =
      static_cast<double>(pool.servers) * pool.target_rps_per_server;
  out.history_exact = engine_->raw_covers(from, to);

  const SeriesKey rps_key{pool.datacenter, pool.pool, SeriesKey::kPoolScope,
                          MetricKind::kRequestsPerSecond};
  const SeriesKey servers_key{pool.datacenter, pool.pool,
                              SeriesKey::kPoolScope,
                              MetricKind::kActiveServers};

  // Replay history into the decomposition in window order. Total pool
  // demand per window is mean per-server RPS x online servers; evicted
  // windows read as dark and are skipped.
  ml::TrendSeasonDecomposition decomposition(options_.decomposition);
  for (SimTime t = from; t < to; t += window) {
    const std::optional<double> rps = engine_->window_value(rps_key, t);
    const std::optional<double> servers =
        engine_->window_value(servers_key, t);
    if (!rps || !servers) continue;  // dark (e.g. full outage) or evicted
    const double total = *rps * *servers;
    decomposition.observe(t, total);
    out.last_demand_rps = total * options_.growth_multiplier;
    ++out.windows_observed;
  }
  out.growth_per_day =
      decomposition.growth_per_day() * options_.growth_multiplier;

  // Scan the forecast grid for the capacity crossings: point estimate plus
  // the band bracket (upper band crosses first, lower last).
  const SimTime horizon_end = to + options_.horizon_seconds;
  bool upper_crossed = false;
  bool lower_crossed = false;
  for (SimTime t = to; t < horizon_end; t += window) {
    const ml::TrendSeasonForecast f = decomposition.predict(t);
    const double value = f.value * options_.growth_multiplier;
    const double upper = f.upper * options_.growth_multiplier;
    const double lower = f.lower * options_.growth_multiplier;
    if (value > out.peak_forecast_rps) out.peak_forecast_rps = value;
    if (upper > out.peak_upper_rps) out.peak_upper_rps = upper;
    if (!upper_crossed && upper >= out.capacity_rps) {
      upper_crossed = true;
      out.earliest_within_horizon = true;
      out.exhaustion_earliest = t;
    }
    if (!out.exhausts && value >= out.capacity_rps) {
      out.exhausts = true;
      out.exhaustion_time = t;
    }
    if (!lower_crossed && lower >= out.capacity_rps) {
      lower_crossed = true;
      out.latest_within_horizon = true;
      out.exhaustion_latest = t;
    }
  }

  if (out.windows_observed > 0 && out.last_demand_rps >= out.capacity_rps) {
    out.risk = HeadroomRisk::kExhausted;
  } else if (out.exhausts &&
             out.exhaustion_time < to + options_.critical_seconds) {
    out.risk = HeadroomRisk::kCritical;
  } else if (out.exhausts) {
    out.risk = HeadroomRisk::kWarning;
  } else if (out.growth_per_day <= 0.0) {
    out.risk = HeadroomRisk::kNoGrowth;
  } else {
    out.risk = HeadroomRisk::kOk;
  }

  // Procurement: enough additional servers that capacity clears the
  // horizon's upper-band peak at the same operating point.
  if (out.peak_upper_rps > out.capacity_rps) {
    const double deficit = out.peak_upper_rps - out.capacity_rps;
    out.recommended_additional_servers = static_cast<std::size_t>(
        std::ceil(deficit / pool.target_rps_per_server));
  }
  return out;
}

std::string format_capacity_forecasts(
    const std::vector<PoolCapacityForecast>& forecasts) {
  const auto fmt = [](double v) { return telemetry::format_double(v); };
  std::string out;
  for (const PoolCapacityForecast& f : forecasts) {
    out += "pool dc=" + std::to_string(f.datacenter) +
           " pool=" + std::to_string(f.pool);
    out += " servers = " + std::to_string(f.servers);
    out += " capacity_rps = " + fmt(f.capacity_rps);
    out += " windows = " + std::to_string(f.windows_observed);
    out += std::string(" history_exact = ") +
           (f.history_exact ? "true" : "false");
    out += " last_demand_rps = " + fmt(f.last_demand_rps);
    out += " growth_per_day = " + fmt(f.growth_per_day);
    out += " peak_forecast_rps = " + fmt(f.peak_forecast_rps);
    out += " peak_upper_rps = " + fmt(f.peak_upper_rps);
    out += " exhaustion = ";
    out += f.exhausts ? std::to_string(f.exhaustion_time) : "none";
    out += " earliest = ";
    out += f.earliest_within_horizon ? std::to_string(f.exhaustion_earliest)
                                     : "none";
    out += " latest = ";
    out += f.latest_within_horizon ? std::to_string(f.exhaustion_latest)
                                   : "none";
    out += " risk = ";
    out += to_string(f.risk);
    out += " buy_servers = " + std::to_string(f.recommended_additional_servers);
    out += "\n";
  }
  return out;
}

}  // namespace headroom::core
