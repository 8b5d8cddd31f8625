#include "core/rolling_plan.h"

#include <algorithm>
#include <vector>

#include "stats/percentile.h"

namespace headroom::core {

RollingPoolPlanner::RollingPoolPlanner(HeadroomPolicy policy, Options options)
    : policy_(policy),
      min_windows_(std::max<std::size_t>(options.min_windows, 1)),
      cpu_(options.lookback_windows),
      latency_(options.lookback_windows) {}

void RollingPoolPlanner::add_window(double rps_per_server, double cpu_pct,
                                    double latency_p95_ms, bool healed) {
  if (healed) {
    // Synthesized gap-fill: trusted enough to keep the feed continuous,
    // not trusted enough to fit a response curve on.
    ++untrusted_windows_;
    return;
  }
  cpu_.add(rps_per_server, cpu_pct);
  latency_.add(rps_per_server, latency_p95_ms);
}

PoolResponseModel RollingPoolPlanner::model() const {
  return PoolResponseModel::from_fits(cpu_.fit(), latency_.quadratic());
}

std::optional<HeadroomPlan> RollingPoolPlanner::plan(
    std::size_t current_servers) const {
  if (size() < min_windows_ || current_servers == 0) return std::nullopt;
  std::vector<double> rps;
  rps.reserve(size());
  for (const stats::RollingOls::Point& p : cpu_.points()) rps.push_back(p.x);
  const double p95 = stats::percentile(rps, 95.0);
  return HeadroomOptimizer(policy_).plan(model(), p95, current_servers);
}

}  // namespace headroom::core
