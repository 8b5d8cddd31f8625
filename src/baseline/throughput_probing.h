// Throughput-probing capacity controller (after MongoDB's execution
// control: probe the concurrency level up and down, measure, adapt).
//
// The controller holds a stable capacity, then periodically probes one
// step *down* and watches the measured latency for a settle period: if the
// smaller pool still clears the SLO with headroom, the probe is adopted
// and probing continues; if not, it reverts and backs off. A measured SLO
// violation at any point forces an immediate step up. Entirely
// measurement-driven — no forecaster and no response surface; its frontier
// position shows what pure local search buys (tight steady-state sizing)
// and what it costs (oscillation, and latency excursions on every demand
// shift, since every fact it learns costs a probe).
#pragma once

#include <cstddef>

#include "core/capacity_planner.h"

namespace headroom::baseline {

struct ThroughputProbingOptions {
  /// Windows a probe (or a fresh capacity) is measured before judging it.
  std::size_t settle_windows = 5;
  /// Capacity step per probe, as a fraction of current serving (>= 1
  /// server always).
  double probe_step_fraction = 0.10;
  /// Probe pause after a failed probe-down, in settle periods (back-off so
  /// a pool at its floor is not perpetually re-probed).
  std::size_t backoff_periods = 3;
};

class ThroughputProbingPlanner final : public core::CapacityPlanner {
 public:
  explicit ThroughputProbingPlanner(ThroughputProbingOptions options = {});

  [[nodiscard]] std::string name() const override { return "probing"; }
  void start(const core::PlannerContext& context,
             std::size_t initial_serving) override;
  [[nodiscard]] std::size_t plan_window(
      const core::PlannerWindow& window) override;

 private:
  [[nodiscard]] std::size_t step_of(std::size_t serving) const;

  ThroughputProbingOptions options_;
  core::PlannerContext context_;
  enum class Phase { kHold, kProbeDown };
  Phase phase_ = Phase::kHold;
  std::size_t current_ = 0;
  std::size_t revert_to_ = 0;      ///< Pre-probe capacity.
  std::size_t windows_in_phase_ = 0;
  std::size_t cooldown_ = 0;       ///< Windows left before probing again.
  double worst_latency_ms_ = 0.0;  ///< Max observed latency this phase.
};

}  // namespace headroom::baseline
