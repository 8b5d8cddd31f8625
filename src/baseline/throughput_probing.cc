#include "baseline/throughput_probing.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace headroom::baseline {

/// Required gap below the latency SLO for a probe-down to be adopted — and,
/// symmetrically, the "getting close" line that triggers a proactive step
/// up.
constexpr double kLatencyHeadroomMs = 3.0;

ThroughputProbingPlanner::ThroughputProbingPlanner(
    ThroughputProbingOptions options)
    : options_(options) {
  if (options_.settle_windows == 0) {
    throw std::invalid_argument(
        "ThroughputProbingPlanner: settle_windows must be positive");
  }
  if (options_.probe_step_fraction <= 0.0 ||
      options_.probe_step_fraction >= 1.0) {
    throw std::invalid_argument(
        "ThroughputProbingPlanner: probe_step_fraction must be in (0, 1)");
  }
}

void ThroughputProbingPlanner::start(const core::PlannerContext& context,
                                     std::size_t initial_serving) {
  context_ = context;
  phase_ = Phase::kHold;
  current_ = initial_serving;
  revert_to_ = initial_serving;
  windows_in_phase_ = 0;
  cooldown_ = 0;
  worst_latency_ms_ = 0.0;
}

std::size_t ThroughputProbingPlanner::step_of(std::size_t serving) const {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             static_cast<double>(serving) * options_.probe_step_fraction)));
}

std::size_t ThroughputProbingPlanner::plan_window(
    const core::PlannerWindow& window) {
  // A measured violation preempts everything: step up now, abandon any
  // probe in flight, and restart the measurement clock.
  if (window.latency_p95_ms > context_.latency_slo_ms) {
    current_ = std::min(context_.pool_size, current_ + step_of(current_));
    phase_ = Phase::kHold;
    windows_in_phase_ = 0;
    cooldown_ = 0;  // a violation is fresh evidence; probe freely later
    worst_latency_ms_ = 0.0;
    return current_;
  }

  worst_latency_ms_ = std::max(worst_latency_ms_, window.latency_p95_ms);
  ++windows_in_phase_;
  if (windows_in_phase_ < options_.settle_windows) return current_;

  // Settle period complete: judge it.
  const double comfort = context_.latency_slo_ms - kLatencyHeadroomMs;
  const bool comfortable = worst_latency_ms_ <= comfort;
  windows_in_phase_ = 0;
  worst_latency_ms_ = 0.0;

  switch (phase_) {
    case Phase::kHold:
      if (!comfortable) {
        // Creeping toward the SLO without violating it yet: proactive step
        // up rather than waiting for the violation.
        current_ = std::min(context_.pool_size, current_ + step_of(current_));
      } else if (cooldown_ > 0) {
        --cooldown_;
      } else if (current_ > context_.min_servers) {
        revert_to_ = current_;
        current_ = std::max(context_.min_servers, current_ - step_of(current_));
        phase_ = Phase::kProbeDown;
      }
      break;
    case Phase::kProbeDown:
      if (comfortable) {
        // Probe adopted; keep walking down from here next period.
        phase_ = Phase::kHold;
      } else {
        current_ = revert_to_;
        phase_ = Phase::kHold;
        cooldown_ = options_.backoff_periods;
      }
      break;
  }
  return current_;
}

}  // namespace headroom::baseline
