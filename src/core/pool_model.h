// Step 2 (Optimize): the fitted black-box pool response model.
//
// Two curves, exactly as the paper fits them:
//  - %CPU per server vs RPS per server: ordinary least squares (Figs. 8/10;
//    "a linear model trained on the original server pool size").
//  - P95 latency vs RPS per server: a second-order quadratic, robustly fit
//    with RANSAC (Eq. 1, Figs. 9/11).
// Forecasting a server reduction is then arithmetic: removing servers at
// fixed total workload raises RPS/server by n_old/n_new; evaluate both
// curves there.
#pragma once

#include <cstddef>

#include "stats/linear_model.h"
#include "stats/polynomial.h"
#include "stats/ransac.h"
#include "telemetry/time_series.h"

namespace headroom::core {

struct PoolModelOptions {
  /// RANSAC residual tolerance for the latency fit, in ms. <=0 disables
  /// RANSAC (plain least squares).
  double ransac_threshold_ms = 2.0;
  std::size_t ransac_iterations = 300;
  std::uint64_t seed = 31;
};

/// Forecast of one reduction experiment (the paper's §III-A tables).
struct ReductionForecast {
  std::size_t servers_before = 0;
  std::size_t servers_after = 0;
  double rps_per_server_before = 0.0;
  double rps_per_server_after = 0.0;
  double cpu_before_pct = 0.0;
  double cpu_after_pct = 0.0;
  double latency_before_ms = 0.0;
  double latency_after_ms = 0.0;
  [[nodiscard]] double latency_delta_ms() const noexcept {
    return latency_after_ms - latency_before_ms;
  }
};

class PoolResponseModel {
 public:
  /// Fits both curves from aligned (RPS/server, %CPU) and (RPS/server,
  /// latency P95) scatters — typically MetricStore::pool_scatter output.
  [[nodiscard]] static PoolResponseModel fit(
      const telemetry::AlignedPair& rps_vs_cpu,
      const telemetry::AlignedPair& rps_vs_latency,
      const PoolModelOptions& options = {});

  /// Assembles a model from fits computed elsewhere — the incremental
  /// serve path keeps both curves in stats::RollingOls rings over a
  /// rolling window (core/rolling_plan.h) instead of refitting scatters.
  [[nodiscard]] static PoolResponseModel from_fits(
      stats::LinearFit cpu_fit, stats::PolynomialFit latency_fit,
      double latency_inlier_fraction = 1.0);

  [[nodiscard]] double predict_cpu_pct(double rps_per_server) const noexcept;
  [[nodiscard]] double predict_latency_ms(double rps_per_server) const noexcept;

  /// Forecast for shrinking the pool from `servers_before` to
  /// `servers_after` at constant total workload, anchored at the reference
  /// per-server load `rps_per_server_before` (e.g. the P95 of the observed
  /// distribution, as in Tables II/III).
  [[nodiscard]] ReductionForecast forecast_reduction(
      double rps_per_server_before, std::size_t servers_before,
      std::size_t servers_after) const;

  /// Largest per-server RPS whose predicted latency stays at/below
  /// `latency_slo_ms`, searched over [anchor, anchor*max_extrapolation].
  /// Returns anchor when even that violates; the cap acknowledges the
  /// paper's warning that extrapolations far beyond observed load are
  /// untrustworthy ("Data is insufficient to forecast when the latency
  /// curve will rise at even higher loads").
  [[nodiscard]] double max_rps_within_slo(double anchor_rps,
                                          double latency_slo_ms,
                                          double max_extrapolation = 2.0) const;

  [[nodiscard]] const stats::LinearFit& cpu_fit() const noexcept {
    return cpu_fit_;
  }
  [[nodiscard]] const stats::PolynomialFit& latency_fit() const noexcept {
    return latency_fit_;
  }
  /// Fraction of latency samples RANSAC kept as inliers.
  [[nodiscard]] double latency_inlier_fraction() const noexcept {
    return latency_inlier_fraction_;
  }

 private:
  stats::LinearFit cpu_fit_;
  stats::PolynomialFit latency_fit_;
  double latency_inlier_fraction_ = 1.0;
};

}  // namespace headroom::core
