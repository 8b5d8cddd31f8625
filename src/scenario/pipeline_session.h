// Resumable pipeline stages shared by batch runs, trace replay, and serve.
//
// ScenarioRunner::run_pipeline_steps used to be one straight-line function:
// Measure -> Optimize (plan + RSM experiment) -> Model -> Validate. Serve
// mode needs the same stages cut at their observation points — measure and
// plan fire once at the observation horizon, the RSM experiment advances
// window-by-window as the feed grows, and model/validate run at
// finalization — without the batch path and the streaming path ever
// diverging. PipelineSession is that cut: the batch runner drives a session
// start-to-finish in one call, serve drives the identical session one
// window at a time, and both fill the same ScenarioRunResult fields in the
// same order, which is what keeps the streaming pipeline's final summary
// byte-identical to the batch goldens.
//
// The free functions are the runner internals every subcommand shares (the
// reduction check, the batch observation phase, the environment-metric
// oracle, store truncation, assertion evaluation), and ReplaySetup is the
// setup `run --trace` and `serve --follow` share before their pipeline
// reads a recording through a LiveFeedBackend (sealed for replay, live
// for follow) — pure stages shared rather than duplicated.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/live_feed_backend.h"
#include "core/rsm_planner.h"
#include "scenario/scenario_runner.h"
#include "scenario/scenario_spec.h"
#include "sim/fleet.h"

namespace headroom::scenario {

/// Seconds per simulated day — the unit scenario horizons are written in.
inline constexpr telemetry::SimTime kDaySeconds = 86400;

[[nodiscard]] telemetry::SimTime hours_to_sim(double hours) noexcept;

/// Everything the four pipeline steps read. `store` holds observation-phase
/// telemetry only (in simulator mode that is the live store, which the RSM
/// phase has not yet extended; in replay it is the recording truncated at
/// the horizon); `server_days` are the per-server-day CPU rows as of
/// measure time; `backend` is the RSM planner's experiment surface.
struct PipelineContext {
  const telemetry::MetricStore* store = nullptr;
  std::span<const sim::ServerDayCpu> server_days;
  core::PoolExperimentBackend* backend = nullptr;
  double latency_slo_ms = 0.0;
  std::size_t datacenter_count = 1;
};

class PipelineSession {
 public:
  /// `ctx`'s pointers must outlive the session.
  PipelineSession(const ScenarioSpec& spec, PipelineContext ctx);

  /// Step 1 (Measure) plus the headroom plan half of step 2 — everything
  /// that reads only the observation phase. No-ops for steps the spec does
  /// not run. Call once, before the RSM phase.
  void run_measure_and_plan(ScenarioRunResult& result);

  /// Starts step 2's RSM experiment (a no-op when the spec does not run
  /// the optimize step). `seed` optionally pre-loads the session baseline
  /// from already-observed history (serve's reuse-baseline mode) — batch
  /// and replay leave it null so the experiment observes its own baseline,
  /// which is what the goldens pin.
  void start_rsm(const core::ExperimentObservations* seed = nullptr);

  /// Advances the RSM experiment as far as the backend's data allows.
  /// Returns true when the experiment is complete (immediately true when
  /// the optimize step is off). Backend exceptions propagate.
  [[nodiscard]] bool advance_rsm();

  /// Records the RSM outcome and runs steps 3 (Model) and 4 (Validate) —
  /// then the session is complete. Requires advance_rsm() to have
  /// returned true (throws std::logic_error otherwise). When the RSM
  /// experiment was ended by abort_rsm_failsafe(), additionally emits
  /// `rsm_failsafe = 1` so summaries (and assertions) can see the
  /// degraded outcome.
  void finalize(ScenarioRunResult& result);

  /// Failsafe abort of a pending RSM experiment (the degradation layer
  /// declared the pool's feed past its staleness budget): serving returns
  /// to the validated pre-experiment count and the session becomes
  /// finalizable. No-op when the experiment is not running.
  void abort_rsm_failsafe();

  /// The live RSM session, null before start_rsm() (or when optimize is
  /// off). Serve reads its pending state for progress reporting.
  [[nodiscard]] const core::RsmSession* rsm() const noexcept {
    return rsm_ ? &*rsm_ : nullptr;
  }

 private:
  ScenarioSpec spec_;
  PipelineContext ctx_;
  std::optional<core::RsmSession> rsm_;
  bool rsm_started_ = false;
};

/// Serving reductions sorted by start time (stable for equal times, which
/// validate() has already ruled out per pool).
[[nodiscard]] std::vector<ScenarioEvent> sorted_reductions(
    const ScenarioSpec& spec);

/// The spec's serving reductions, sorted, after checking each against the
/// observation window and its pool's size. Every subcommand calls this
/// before it steps or applies any of them, so all of them reject a bad
/// reduction with the same std::invalid_argument message and no wasted
/// simulation.
[[nodiscard]] std::vector<ScenarioEvent> checked_reductions(
    const sim::FleetSimulator& fleet, const ScenarioSpec& spec);

/// The batch observation phase: steps a fresh fleet to each reduction's
/// start (where the reduction is applied), then to the horizon, and closes
/// the last day's per-server digests.
void observe_to_horizon(sim::FleetSimulator& fleet, const ScenarioSpec& spec);

/// The disaster-recovery reserve a pool's headroom plan holds back: one
/// datacenter's share (1/N) of an N-DC fleet, or 0.125 for a single DC.
[[nodiscard]] double dr_headroom_fraction(std::size_t datacenter_count);

/// Latency SLO of the target pool (0, 0)'s service.
[[nodiscard]] double target_latency_slo_ms(
    const sim::FleetSimulator& fleet, const sim::MicroserviceCatalog& catalog);

/// Feed options for the target pool (0, 0) of `fleet`: its size and
/// current serving count, the cursor at `start`, on a `window` grid.
/// Callers set `sealed`, `validate_serving` and `label`.
[[nodiscard]] core::LiveFeedBackend::Options target_feed_options(
    const sim::FleetSimulator& fleet, telemetry::SimTime start,
    telemetry::SimTime window);

/// Fleet-shape and event-timeline metrics. Everything here is a pure
/// function of the config and the demand oracle (datacenter_demand does
/// not depend on stepping state), so simulator runs, trace replays and
/// serve sessions compute identical values without sharing any telemetry.
void compute_environment_metrics(const sim::FleetSimulator& fleet,
                                 const ScenarioSpec& spec,
                                 std::map<std::string, double>& metrics);

/// Checks every spec assertion against the flat metric map.
void evaluate_assertions(const ScenarioSpec& spec, ScenarioRunResult& result);

/// Resolves every `pool(DC,POOL).base` assertion target the spec uses into
/// `metrics`, computed over that pool's observation-phase series in
/// [0, horizon). Pure store reads (peak/mean of rps, cpu, p95 latency;
/// min/max active servers), so batch, replay, serve, and follow agree
/// byte-for-byte on the same store contents. Pools absent from the store
/// are left unresolved — the assertion then fails as NaN, like any
/// missing metric.
void compute_pool_assertion_metrics(const telemetry::MetricStore& store,
                                    const ScenarioSpec& spec,
                                    std::map<std::string, double>& metrics);

/// The recording truncated at `end`: exactly the telemetry the pipeline's
/// measure/fit stages saw in the original run, rebuilt through the same
/// batched-merge write path the simulator records through.
[[nodiscard]] telemetry::MetricStore truncate_store(
    const telemetry::MetricStore& full, telemetry::SimTime end);

/// The setup trace replay and follow mode share. The fleet is a config
/// oracle, built exactly as the recording run built it but never stepped:
/// it answers pure-config questions (pool sizes, SLOs, demand curves, event
/// windows) while every observation comes from the recording. Reductions
/// move only its control variable — their telemetry is already recorded —
/// which leaves the recording's serving count at the horizon, the RSM
/// planner's starting point.
class ReplaySetup {
 public:
  /// Builds the oracle and fills `result`'s spec, thread count,
  /// environment metrics and SLO. Throws what ScenarioRunner::run throws
  /// for an invalid spec.
  ReplaySetup(const ScenarioSpec& spec, ScenarioRunResult& result);

  [[nodiscard]] const sim::FleetSimulator& fleet() const noexcept {
    return fleet_;
  }
  [[nodiscard]] const sim::MicroserviceCatalog& catalog() const noexcept {
    return catalog_;
  }
  /// Where the recording's RSM phase began: the first window boundary at
  /// or after the horizon (run_until overshoots a horizon that is not a
  /// window multiple by one partial step).
  [[nodiscard]] telemetry::SimTime experiment_start() const noexcept {
    return experiment_start_;
  }
  /// target_feed_options at the experiment start.
  [[nodiscard]] core::LiveFeedBackend::Options feed_options() const;

  /// Freezes what the recording run's measure step saw: `recording`
  /// truncated at the horizon, and the server-day rows of the days before
  /// it (the recording kept appending rows during its RSM phase). Resolves
  /// the pool assertion metrics over it into `result`, and returns the
  /// pipeline context over it — valid while this setup lives.
  [[nodiscard]] PipelineContext observe(
      const telemetry::MetricStore& recording,
      std::span<const sim::ServerDayCpu> server_days,
      core::PoolExperimentBackend* backend, ScenarioRunResult& result);

 private:
  ScenarioSpec spec_;
  sim::MicroserviceCatalog catalog_;
  sim::FleetSimulator fleet_;
  telemetry::SimTime experiment_start_ = 0;
  telemetry::MetricStore observation_;
  std::vector<sim::ServerDayCpu> server_days_;
};

}  // namespace headroom::scenario
