#include "core/pool_model.h"

#include <cstdint>
#include <stdexcept>
#include <utility>

namespace headroom::core {

// RANSAC settings of the latency fit.
constexpr std::size_t kRansacIterations = 300;
constexpr std::uint64_t kRansacSeed = 31;

PoolResponseModel PoolResponseModel::fit(
    const telemetry::AlignedPair& rps_vs_cpu,
    const telemetry::AlignedPair& rps_vs_latency,
    const PoolModelOptions& options) {
  PoolResponseModel model;
  model.cpu_fit_ = stats::fit_linear(rps_vs_cpu.x, rps_vs_cpu.y);

  if (options.ransac_threshold_ms > 0.0 && rps_vs_latency.x.size() >= 8) {
    stats::RansacOptions ropt;
    ropt.degree = 2;
    ropt.iterations = kRansacIterations;
    ropt.inlier_threshold = options.ransac_threshold_ms;
    ropt.seed = kRansacSeed;
    const stats::RansacResult r =
        stats::fit_ransac(rps_vs_latency.x, rps_vs_latency.y, ropt);
    model.latency_fit_ = r.fit;
    model.latency_inlier_fraction_ =
        rps_vs_latency.x.empty()
            ? 1.0
            : static_cast<double>(r.inliers.size()) /
                  static_cast<double>(rps_vs_latency.x.size());
  } else {
    model.latency_fit_ = stats::fit_quadratic(rps_vs_latency.x, rps_vs_latency.y);
  }
  return model;
}

PoolResponseModel PoolResponseModel::from_fits(
    stats::LinearFit cpu_fit, stats::PolynomialFit latency_fit,
    double latency_inlier_fraction) {
  PoolResponseModel model;
  model.cpu_fit_ = cpu_fit;
  model.latency_fit_ = std::move(latency_fit);
  model.latency_inlier_fraction_ = latency_inlier_fraction;
  return model;
}

double PoolResponseModel::predict_cpu_pct(double rps_per_server) const noexcept {
  return cpu_fit_.predict(rps_per_server);
}

double PoolResponseModel::predict_latency_ms(double rps_per_server) const noexcept {
  return latency_fit_.predict(rps_per_server);
}

ReductionForecast PoolResponseModel::forecast_reduction(
    double rps_per_server_before, std::size_t servers_before,
    std::size_t servers_after) const {
  if (servers_before == 0 || servers_after == 0) {
    throw std::invalid_argument("forecast_reduction: server counts must be positive");
  }
  ReductionForecast f;
  f.servers_before = servers_before;
  f.servers_after = servers_after;
  f.rps_per_server_before = rps_per_server_before;
  // Total workload is held constant; survivors absorb the difference.
  f.rps_per_server_after = rps_per_server_before *
                           static_cast<double>(servers_before) /
                           static_cast<double>(servers_after);
  f.cpu_before_pct = predict_cpu_pct(f.rps_per_server_before);
  f.cpu_after_pct = predict_cpu_pct(f.rps_per_server_after);
  f.latency_before_ms = predict_latency_ms(f.rps_per_server_before);
  f.latency_after_ms = predict_latency_ms(f.rps_per_server_after);
  return f;
}

double PoolResponseModel::max_rps_within_slo(double anchor_rps,
                                             double latency_slo_ms,
                                             double max_extrapolation) const {
  if (anchor_rps <= 0.0) {
    throw std::invalid_argument("max_rps_within_slo: anchor must be positive");
  }
  if (predict_latency_ms(anchor_rps) > latency_slo_ms) return anchor_rps;
  const double hi_limit = anchor_rps * max_extrapolation;
  // The quadratic may dip before rising; bisect on the highest satisfying
  // point via a coarse scan followed by refinement.
  constexpr int kScanSteps = 64;
  double best = anchor_rps;
  for (int i = 1; i <= kScanSteps; ++i) {
    const double x = anchor_rps + (hi_limit - anchor_rps) *
                                      static_cast<double>(i) /
                                      static_cast<double>(kScanSteps);
    if (predict_latency_ms(x) <= latency_slo_ms) {
      best = x;
    } else {
      break;  // first violation: stop at the contiguous feasible prefix
    }
  }
  // Refine between best and the next scan point.
  double lo = best;
  double hi = std::min(hi_limit,
                       best + (hi_limit - anchor_rps) / kScanSteps);
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (predict_latency_ms(mid) <= latency_slo_ms) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace headroom::core
