// Reactive autoscaler: the dynamic-allocation comparator.
//
// Scales a pool on CPU feedback with a *provisioning lag* — the paper's
// core criticism: "prior work underestimated the time required to change
// the capacity of a system" (start-up in minutes for cache/JIT warm-up;
// fleet-level changes in weeks). The comparison bench replays a diurnal
// day-with-spike trace through this policy and counts SLO violations and
// server-hours versus the static right-sized headroom plan; the bake-off
// runs the same control loop as its `reactive` entrant, with the CPU model
// and thresholds derived from the pool's response surface.
//
// The linear CPU response (cpu = cpu_base + cpu_per_rps * rps/server) is
// part of the options rather than a replay argument so the constructor can
// reject misconfigurations outright: a target_cpu_pct at or below cpu_base
// makes the sizing division negative, which the damping clamp then
// silently turns into a *scale-in* on every scale-out decision — the
// classic silent-misconfiguration failure this class used to have.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "core/capacity_planner.h"
#include "telemetry/time_series.h"

namespace headroom::baseline {

/// start() overwrites the CPU response model, the violation line, the three
/// thresholds and the server bounds from the planner context; the lags, the
/// decision cadence and the damping always come from here.
struct AutoscalerOptions {
  double target_cpu_pct = 50.0;     ///< Scale to hold mean CPU here.
  double scale_out_threshold = 60.0;
  double scale_in_threshold = 35.0;
  /// Seconds between a scale-out decision and the capacity serving traffic
  /// (VM allocation + state load + JIT + cache priming). Both lags are
  /// rounded up to whole windows and must be non-negative.
  telemetry::SimTime provision_lag_s = 1800;
  /// Seconds a scale-in takes to drain.
  telemetry::SimTime drain_lag_s = 300;
  /// Decision cadence.
  telemetry::SimTime control_interval_s = 120;
  std::size_t min_servers = 1;
  std::size_t max_servers = 1 << 16;
  /// Max fractional change per decision (damping). Must be in (0, 1):
  /// at >= 1 the lower damping bound goes non-positive and a scale-out
  /// decision may collapse the pool instead of growing it.
  double max_step_fraction = 0.25;

  // --- CPU response model (what the controller believes about the pool) --
  /// Realized CPU = cpu_base + cpu_per_rps * rps/server.
  double cpu_per_rps = 0.028;
  /// CPU floor at zero load. Must be strictly below target_cpu_pct.
  double cpu_base = 1.4;
  /// The violation line (utilization proxy for the latency SLO).
  double cpu_slo_pct = 75.0;
};

/// One control-loop sample of the replay.
struct AutoscalerSample {
  telemetry::SimTime t = 0;
  double offered_rps = 0.0;
  std::size_t serving = 0;     ///< Capacity actually serving traffic.
  std::size_t target = 0;      ///< Policy's desired capacity.
  double cpu_pct = 0.0;        ///< Realized per-server CPU.
  bool slo_violated = false;
};

struct AutoscalerRun {
  std::vector<AutoscalerSample> samples;
  double server_seconds = 0.0;       ///< Integrated capacity footprint.
  double violation_seconds = 0.0;    ///< Time above the CPU/latency limit.
  double total_seconds = 0.0;
  std::size_t peak_serving = 0;
  [[nodiscard]] double violation_fraction() const noexcept {
    return total_seconds > 0.0 ? violation_seconds / total_seconds : 0.0;
  }
  /// Mean serving capacity over the run.
  [[nodiscard]] double mean_serving() const noexcept {
    return total_seconds > 0.0 ? server_seconds / total_seconds : 0.0;
  }
};

/// The control loop. plan_window() is one control step on a completed
/// window; replay() drives the same steps over an offered-load trace with
/// CPU from the options' linear model.
class ReactiveAutoscaler final : public core::CapacityPlanner {
 public:
  /// Validates the options. Throws std::invalid_argument with an exact
  /// message for each misconfiguration (see the .cc); in particular the
  /// option sets that used to silently misbehave — target_cpu_pct <=
  /// cpu_base, max_step_fraction outside (0, 1), scale_in_threshold >=
  /// scale_out_threshold — are rejected here.
  explicit ReactiveAutoscaler(AutoscalerOptions options = {});

  [[nodiscard]] std::string name() const override { return "reactive"; }

  /// Derives the CPU model from the surface's linear CPU fit and the
  /// violation line cpu_slo_pct from where its latency curve crosses the
  /// SLO; the target, scale-out and scale-in thresholds sit at cpu_base +
  /// {0.80, 0.90, 0.55} x (cpu_slo_pct - cpu_base). Server bounds come from
  /// the context. Throws std::invalid_argument on a null context.model.
  void start(const core::PlannerContext& context,
             std::size_t initial_serving) override;

  /// One control step: at the decision cadence, decide() on the window's
  /// load and CPU; a changed target starts serving once its provisioning
  /// (or drain) lag has elapsed after this window. Returns the serving
  /// count for the next window. Changes land in the order they were
  /// decided, so a drain decided after a scale-out never lands before it.
  [[nodiscard]] std::size_t plan_window(
      const core::PlannerWindow& window) override;

  /// Drives plan_window() over `offered_rps`, one window per sample (the
  /// window width is the spacing of the first two samples), with each
  /// sample's CPU from the options' linear model at the capacity serving
  /// it. Runs on a copy, so this object is unchanged.
  [[nodiscard]] AutoscalerRun replay(const telemetry::TimeSeries& offered_rps,
                                     std::size_t initial_servers) const;

  /// The pure control law: given the pool-total offered load and realized
  /// per-server CPU at the committed target, the damped and clamped desired
  /// serving count. Returns `committed_target` unchanged while CPU sits
  /// inside the [scale_in, scale_out] band.
  [[nodiscard]] std::size_t decide(double total_rps, double cpu_pct,
                                   std::size_t committed_target) const;

  [[nodiscard]] const AutoscalerOptions& options() const noexcept {
    return options_;
  }

 private:
  void reset(std::size_t initial_serving, telemetry::SimTime window_seconds);

  AutoscalerOptions options_;
  telemetry::SimTime window_seconds_ = 120;
  std::size_t decide_every_ = 1;
  std::size_t index_ = 0;
  std::size_t serving_ = 0;
  std::size_t committed_target_ = 0;  ///< Includes changes still in flight.
  /// Decided changes not yet serving, oldest first: (window index at which
  /// the change starts serving, target).
  std::deque<std::pair<std::size_t, std::size_t>> pending_;
};

}  // namespace headroom::baseline
