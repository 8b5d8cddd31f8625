#include "core/rolling_plan.h"

#include <algorithm>

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
  if (cpu_.size() == cpu_.lookback()) {
    // The fits are about to evict their oldest point; its load leaves the
    // sorted set with it.
    sorted_rps_.erase(std::lower_bound(
        sorted_rps_.begin(), sorted_rps_.end(), cpu_.points().front().x));
  }
  sorted_rps_.insert(
      std::upper_bound(sorted_rps_.begin(), sorted_rps_.end(), rps_per_server),
      rps_per_server);
  cpu_.add(rps_per_server, cpu_pct);
  latency_.add(rps_per_server, latency_p95_ms);
}

PoolResponseModel RollingPoolPlanner::model() const {
  return PoolResponseModel::from_fits(cpu_.fit(), latency_.quadratic());
}

std::optional<HeadroomPlan> RollingPoolPlanner::plan(
    std::size_t current_servers) const {
  if (size() < min_windows_ || current_servers == 0) return std::nullopt;
  const double p95 = stats::percentile_sorted(sorted_rps_, 95.0);
  return HeadroomOptimizer(policy_).plan(model(), p95, current_servers);
}

}  // namespace headroom::core
