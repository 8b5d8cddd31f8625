// White-box capacity planner built on the M/M/c model.
//
// Sizes a pool from first principles: measured (or assumed) service time,
// target latency SLO, peak arrival rate. Its accuracy is hostage to its
// parameters: the comparison bench shows that a stale service-time estimate
// (the system evolved) or an unmodeled cold-start effect produces a
// systematically wrong pool size, while the black-box planner just refits.
//
// As the bake-off's `queueing` entrant it re-plans the M/M/c sizing each
// window for the running peak demand. Its service time is, deliberately, a
// *belief*: start() calibrates it once from the response surface's
// warm-latency floor and never refits it — the paper's stale-white-box-model
// argument as a tournament entrant.
#pragma once

#include <cstddef>

#include "core/capacity_planner.h"
#include "core/slo.h"

namespace headroom::baseline {

struct QueueingPlannerOptions {
  /// Assumed mean single-request service time (what the model *believes*;
  /// may be stale relative to the real system). start() replaces it with
  /// the surface-calibrated belief.
  double service_time_ms = 5.0;
  /// Servers process this many requests concurrently (cores).
  double concurrency_per_server = 16.0;
  /// Utilization ceiling the planner refuses to exceed even when the
  /// latency target would allow it.
  double max_utilization = 0.85;
};

struct QueueingPlan {
  std::size_t servers = 0;
  double predicted_p95_latency_ms = 0.0;
  double utilization = 0.0;
};

class QueueingPlanner final : public core::CapacityPlanner {
 public:
  explicit QueueingPlanner(QueueingPlannerOptions options = {});

  [[nodiscard]] std::string name() const override { return "queueing"; }

  /// Calibrates the believed service time from the surface's warm floor:
  /// the latency fit's zero-load value read as an exponential service P95,
  /// clamped so a service P95 stays within 0.9 x the SLO. Throws
  /// std::invalid_argument on a null context.model.
  void start(const core::PlannerContext& context,
             std::size_t initial_serving) override;

  /// plan() for the running peak demand: the white-box posture sizes once
  /// for the worst observed load and never releases. Zero demand so far
  /// keeps the window's serving count.
  [[nodiscard]] std::size_t plan_window(
      const core::PlannerWindow& window) override;

  /// Minimal servers such that predicted P95 sojourn <= SLO and utilization
  /// <= ceiling at `peak_rps` total workload.
  [[nodiscard]] QueueingPlan plan(double peak_rps,
                                  const core::LatencySlo& slo) const;

  /// Predicted P95 latency at the given operating point.
  [[nodiscard]] double predict_p95_latency_ms(double total_rps,
                                              std::size_t servers) const;

  /// The integer M/M/c logical-server count for a physical server count:
  /// floor(servers * concurrency_per_server). The single definition shared
  /// by plan()'s utilization floor and predict_p95_latency_ms(), so a
  /// fractional concurrency cannot make the two disagree.
  [[nodiscard]] std::size_t effective_servers(std::size_t servers) const;

  [[nodiscard]] const QueueingPlannerOptions& options() const noexcept {
    return options_;
  }

 private:
  QueueingPlannerOptions options_;
  core::LatencySlo slo_;
  double peak_rps_ = 0.0;
};

}  // namespace headroom::baseline
