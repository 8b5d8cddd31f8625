// Trend x season demand decomposition with residual-quantile bands.
//
// Factors a demand history into (1) a growth trend — rolling OLS of demand
// on time over a bounded lookback ring (stats::RollingOls, which serve's
// RollingPoolPlanner fits through too) — and (2) a multiplicative
// seasonal profile: per-bucket EWMA levels of the observed/trend ratio,
// held in the same ml::SeasonalProfile the DemandForecaster uses. A
// forecast for time t is trend(t) x season(bucket(t)); the spread of
// recent one-step residuals (observed minus reconstructed) supplies
// quantile confidence bands around it, in the spirit of trusting a
// prediction only as far as its recent errors warrant.
//
// Fully deterministic and online: observations fold in one at a time in
// timestamp order, so replaying the same history (live telemetry or a
// recorded trace carrying the same window values) reproduces the same
// decomposition bit for bit.
#pragma once

#include <cstddef>
#include <deque>

#include "ml/seasonal.h"
#include "stats/rolling_ols.h"
#include "telemetry/time_series.h"

namespace headroom::ml {

struct TrendSeasonOptions {
  telemetry::SimTime season_seconds = 86400;  ///< Diurnal period.
  std::size_t buckets = 48;                   ///< Seasonal levels (30 min).
  double seasonal_smoothing = 0.25;           ///< EWMA alpha per bucket.
  /// Observations retained in the trend ring. Spanning several seasons
  /// keeps the slope from chasing the diurnal wave; the default holds two
  /// weeks of 120 s windows.
  std::size_t trend_lookback = 14 * 720;
  /// Residuals retained for the band quantiles.
  std::size_t residual_lookback = 2 * 720;
  /// Upper band quantile (lower band is its mirror, 100 - this).
  double band_percentile = 95.0;
};

/// One forecast: reconstructed value plus its residual-quantile band and
/// the factors it came from.
struct TrendSeasonForecast {
  double value = 0.0;   ///< trend x season.
  double lower = 0.0;   ///< value + residual lower quantile.
  double upper = 0.0;   ///< value + residual upper quantile.
  double trend = 0.0;   ///< Trend component alone.
  double season = 1.0;  ///< Seasonal multiplier (1 for unseen buckets).
};

class TrendSeasonDecomposition {
 public:
  explicit TrendSeasonDecomposition(TrendSeasonOptions options = {});

  /// Folds one observed window. Call in non-decreasing timestamp order.
  void observe(telemetry::SimTime t, double value);

  /// Forecast at absolute time `t` (past or future). Until anything has
  /// been observed the forecast is zero with a degenerate band.
  [[nodiscard]] TrendSeasonForecast predict(telemetry::SimTime t) const;

  /// Trend component alone at `t` (the de-seasonalized growth line).
  [[nodiscard]] double trend_at(telemetry::SimTime t) const;

  /// Trend slope expressed per day of sim time.
  [[nodiscard]] double growth_per_day() const;

  [[nodiscard]] std::size_t observations() const noexcept { return count_; }
  /// Seasonal buckets with at least one observation (coverage gauge).
  [[nodiscard]] std::size_t seasonal_coverage() const noexcept {
    return seasonal_.seen_count();
  }
  [[nodiscard]] const TrendSeasonOptions& options() const noexcept {
    return options_;
  }

 private:
  TrendSeasonOptions options_;
  stats::RollingOls trend_;
  SeasonalProfile seasonal_;
  std::deque<double> residuals_;
  std::size_t count_ = 0;
  /// Band offsets are a function of the residual ring alone, not of the
  /// forecast time, and horizon sweeps call predict() once per window —
  /// cache the two quantiles between observes.
  mutable bool band_valid_ = false;
  mutable double band_lower_ = 0.0;
  mutable double band_upper_ = 0.0;
};

}  // namespace headroom::ml
