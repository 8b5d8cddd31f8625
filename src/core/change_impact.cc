#include "core/change_impact.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace headroom::core {

ShiftedResponseModel::ShiftedResponseModel(const PoolResponseModel& production,
                                           const GateResult& gate)
    : production_(&production), latency_delta_(gate.delta_curve) {
  if (!gate.steps.empty()) {
    double acc = 0.0;
    for (const LoadStepComparison& step : gate.steps) {
      acc += step.candidate_mean_cpu_pct - step.baseline_mean_cpu_pct;
    }
    cpu_delta_pct_ = acc / static_cast<double>(gate.steps.size());
  }
}

double ShiftedResponseModel::predict_latency_ms(double rps_per_server) const {
  // Delta below zero means the change is an improvement; trust it, but
  // never let the composed prediction go below zero.
  return std::max(0.0, production_->predict_latency_ms(rps_per_server) +
                           latency_delta_.predict(rps_per_server));
}

double ShiftedResponseModel::predict_cpu_pct(double rps_per_server) const {
  return production_->predict_cpu_pct(rps_per_server) + cpu_delta_pct_;
}

ChangeImpactPlanner::ChangeImpactPlanner(HeadroomPolicy policy)
    : policy_(policy) {
  if (policy_.qos.latency.p95_ms <= 0.0) {
    throw std::invalid_argument("ChangeImpactPlanner: latency SLO must be positive");
  }
}

ChangeImpactPlan ChangeImpactPlanner::plan(const PoolResponseModel& production,
                                           const GateResult& gate,
                                           double p95_rps_per_server,
                                           std::size_t current_servers) const {
  if (current_servers == 0 || p95_rps_per_server <= 0.0) {
    throw std::invalid_argument("ChangeImpactPlanner::plan: bad operating point");
  }
  const HeadroomOptimizer optimizer(policy_);
  const double stress = optimizer.stress_multiplier();
  const double total_rps =
      p95_rps_per_server * static_cast<double>(current_servers);

  // Baseline sizing (today's build).
  const HeadroomPlan before =
      optimizer.plan(production, p95_rps_per_server, current_servers);

  ChangeImpactPlan plan;
  plan.servers_before = before.recommended_servers;

  const ShiftedResponseModel shifted(production, gate);
  plan.predicted_latency_ms = shifted.predict_latency_ms(p95_rps_per_server);
  plan.cpu_delta_pct = shifted.predict_cpu_pct(p95_rps_per_server) -
                       production.predict_cpu_pct(p95_rps_per_server);

  // The candidate's SLO-feasible load. The composed curve may dip (cold-
  // start elevation at low load), so the feasible region is an interval —
  // scan it directly and take the highest feasible per-server load within
  // the trusted extrapolation range.
  const double hi = p95_rps_per_server * policy_.max_extrapolation;
  double max_rps = 0.0;
  constexpr int kScanSteps = 512;
  for (int i = 1; i <= kScanSteps; ++i) {
    const double x = hi * static_cast<double>(i) / kScanSteps;
    if (shifted.predict_latency_ms(x) <= policy_.qos.latency.p95_ms) {
      max_rps = x;
    }
  }
  if (max_rps <= 0.0) {
    // No pool size makes the candidate meet the SLO in the trusted range.
    plan.slo_unreachable = true;
    plan.servers_after = current_servers;
    return plan;
  }
  const double min_servers = total_rps * stress / max_rps;
  plan.servers_after = static_cast<std::size_t>(
      std::max(1.0, std::ceil(min_servers)));
  return plan;
}

}  // namespace headroom::core
