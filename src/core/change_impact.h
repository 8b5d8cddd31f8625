// What-if capacity analysis for code changes (paper §II-D, §III-C).
//
// "Most importantly we not only detect when a change happens, we also
// determine the curve describing the change, enabling adjustment of
// capacity plans if needed. Furthermore this curve tells us what we expect
// the QoS (performance) and resource usage of a software change will be in
// production, before we deploy it."
//
// This planner composes the offline gate's measured delta curves with the
// production pool's fitted response model: the candidate build's predicted
// production latency is baseline(rps) + delta(rps), and the pool is
// re-sized against the same SLO before the change ships.
#pragma once

#include <cstddef>

#include "core/headroom_optimizer.h"
#include "core/pool_model.h"
#include "core/regression_gate.h"

namespace headroom::core {

/// The capacity consequence of deploying a change.
struct ChangeImpactPlan {
  /// Servers needed before / after the change, same SLO and headroom.
  std::size_t servers_before = 0;
  std::size_t servers_after = 0;
  /// Predicted production P95 latency of the candidate at the current
  /// operating point.
  double predicted_latency_ms = 0.0;
  /// Extra CPU fraction the change costs at the operating point.
  double cpu_delta_pct = 0.0;
  /// True when the change cannot meet the SLO at any pool size within the
  /// trusted extrapolation range (the pool would have to grow beyond what
  /// the model can forecast — block the change or re-run experiments).
  bool slo_unreachable = false;

  [[nodiscard]] double additional_servers_fraction() const noexcept {
    if (servers_before == 0) return 0.0;
    return static_cast<double>(servers_after) /
               static_cast<double>(servers_before) -
           1.0;
  }
};

/// Response model shifted by a gate-measured delta curve: the predicted
/// production behaviour of the candidate build.
class ShiftedResponseModel {
 public:
  ShiftedResponseModel(const PoolResponseModel& production,
                       const GateResult& gate);

  [[nodiscard]] double predict_latency_ms(double rps_per_server) const;
  [[nodiscard]] double predict_cpu_pct(double rps_per_server) const;

 private:
  const PoolResponseModel* production_;
  stats::PolynomialFit latency_delta_;
  double cpu_delta_pct_ = 0.0;  ///< Mean CPU delta across gate steps.
};

class ChangeImpactPlanner {
 public:
  explicit ChangeImpactPlanner(HeadroomPolicy policy);

  /// Sizes the pool for the candidate build. `p95_rps_per_server` and
  /// `current_servers` describe today's production operating point.
  [[nodiscard]] ChangeImpactPlan plan(const PoolResponseModel& production,
                                      const GateResult& gate,
                                      double p95_rps_per_server,
                                      std::size_t current_servers) const;

 private:
  HeadroomPolicy policy_;
};

}  // namespace headroom::core
