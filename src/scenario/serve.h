// Continuous headroom service: the batch pipeline run as a stream.
//
// `headroom serve` keeps a scenario's pipeline alive instead of running it
// to completion and exiting. Telemetry arrives window-by-window — from a
// fleet simulator stepped one window at a time (serve mode) or from a
// growing trace directory tailed on disk (follow mode) — and every window
// the runner re-emits a per-pool machine summary line: the pool's workload,
// utilization, latency, serving count, and a rolling headroom
// recommendation (core/rolling_plan.h, O(1) per window regardless of
// history length).
//
// The pipeline stages are the batch ones, cut at their observation points
// (scenario/pipeline_session.h): measure + plan fire once when the feed
// reaches the scenario's observation horizon, the RSM reduction experiment
// then advances whenever the windows it is waiting for arrive
// (core::RsmSession over a LiveFeedBackend), and model/validate run at
// finalization. Because both paths drive the identical session, the final
// machine summary of a served scenario is byte-identical to the batch
// golden — pinned by tests/scenario/serve_identity_test.cc.
//
// Once the experiment phase begins, the store switches to rolling
// retention (MetricStore::set_retention): measure/plan have consumed the
// full observation history by then, the experiment only ever reads forward
// from its cursor, and the rolling planners hold their own ring — so
// resident telemetry is O(retention), not O(elapsed), under an endless
// feed. Evicted samples are dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "scenario/scenario_runner.h"

namespace headroom::scenario {

struct ServeOptions {
  /// Extra whole days to keep serving after the RSM experiment completes
  /// (simulated feed only): the steady-state monitoring phase, emitting
  /// rolling reports with no further pipeline work.
  std::int64_t extra_days = 0;
  /// Rolling store retention once the experiment phase begins; 0 keeps
  /// full history. Must cover the longest single observation the RSM
  /// session requests (one day here), with one day of slack by default.
  telemetry::SimTime retention_seconds = 2 * 86400;
  /// Seed the RSM baseline from the observation phase's trailing history
  /// instead of spending feed windows observing one. Saves a baseline
  /// duration of feed, but the summary then (legitimately) diverges from
  /// the batch golden, which pins the observed baseline.
  bool reuse_observation_baseline = false;
  /// Rolling-planner window budget per pool (ring size).
  std::size_t rolling_lookback_windows = 720;
  /// Windows required before the rolling planner starts recommending.
  std::size_t rolling_min_windows = 8;
  /// Follow mode: delay between polls of a feed that had no new rows.
  std::int64_t poll_ms = 20;
  /// Follow mode: consecutive idle polls before declaring the feed dead.
  /// Before the pipeline's experiment phase an idle feed is fatal (there
  /// is nothing to finalize); mid-experiment the watchdog instead forces
  /// every pool to FAILSAFE, aborts the pending reduction experiment, and
  /// returns a clean degraded result.
  std::size_t max_idle_polls = 250;
  /// Runs the degraded-input delivery layer (fault injection surface,
  /// per-pool health state machine, gap healing, quarantine accounting)
  /// even when the spec declares no [fault] sections. Specs *with* faults
  /// always run it; fault-free un-hardened serves bypass it entirely,
  /// which is what keeps their summaries byte-identical to the era before
  /// the layer existed. Follow mode always hardens its tailer (malformed
  /// and misordered rows are quarantined, not fatal).
  bool harden = false;
  /// Gaps up to this long backfill transparently on resume (seasonal
  /// value a day back when available, else last value) and the pool
  /// returns to NOMINAL. Default: 15 minutes.
  telemetry::SimTime heal_budget_seconds = 900;
  /// A pool dark beyond this enters FAILSAFE: the last-known-good plan is
  /// replaced by the full pool and a pending RSM experiment is aborted
  /// back to its starting serving count. Default: 4 hours.
  telemetry::SimTime staleness_budget_seconds = 14400;
};

/// Sink for the per-window report lines and lifecycle events. Lines are
/// newline-free; the emitter appends its own framing.
using EmitFn = std::function<void(const std::string& line)>;

struct ServeResult {
  /// The completed pipeline outcome — format_summary(result) is
  /// byte-identical to the batch run of the same spec.
  ScenarioRunResult result;
  std::string summary;             ///< format_summary(result).
  std::size_t windows = 0;         ///< Feed windows ingested.
  std::size_t reports = 0;         ///< Per-pool report lines emitted.
  std::size_t resident_samples = 0;  ///< Store samples at completion.
  std::size_t evicted_samples = 0;   ///< Retention-evicted samples.
  /// True when the degraded-input delivery layer ran (spec faults,
  /// --harden, or follow mode).
  bool health_active = false;
  /// True when anything was healed, quarantined, or degraded — the CLI
  /// maps this to a dedicated exit code.
  bool degraded = false;
  /// HealthMonitor::format_report() at completion (empty when the layer
  /// was inactive). For simulated fault runs this is deterministic and
  /// thread-count invariant — golden-pinned; follow-mode reports depend
  /// on wall-clock poll timing and are not.
  std::string health_report;
};

class ServeRunner {
 public:
  explicit ServeRunner(ServeOptions options = {});

  /// Simulated feed: builds the scenario's fleet and steps it one window
  /// at a time, re-emitting per-pool reports each window and advancing the
  /// pipeline stages as their data arrives. Returns once the pipeline (and
  /// any extra_days of steady-state monitoring) completes. Throws what the
  /// batch runner throws for an invalid spec.
  [[nodiscard]] ServeResult serve(const ScenarioSpec& spec,
                                  const EmitFn& emit) const;

  /// Live trace feed: tails the pool CSVs of a trace directory (the
  /// export-trace layout, see scenario/trace.h) as they grow on disk,
  /// feeding new complete rows into the same streaming pipeline. The
  /// directory must pass load_trace_feed (checks 1-5 of trace.h's order:
  /// manifest, scenario and server-day file) when follow() starts; pool
  /// CSVs may grow (partial trailing lines are left for the next poll).
  /// The tailer is hardened: malformed rows, duplicated or reordered
  /// window_starts, and non-finite values are quarantined (skipped and
  /// counted per pool) rather than fatal — header and manifest errors
  /// stay fatal, and the strict batch path (`run --trace`) is untouched.
  /// Completes when the pipeline finishes. A feed idle for max_idle_polls
  /// before the experiment phase throws std::runtime_error; idle
  /// mid-experiment, the watchdog degrades every pool to FAILSAFE, aborts
  /// the reduction experiment, and returns a clean degraded result.
  /// Throws std::runtime_error with the trace diagnostics for a malformed
  /// manifest or header.
  [[nodiscard]] ServeResult follow(const std::string& trace_dir,
                                   const EmitFn& emit) const;

  [[nodiscard]] const ServeOptions& options() const noexcept {
    return options_;
  }

 private:
  ServeOptions options_;
};

}  // namespace headroom::scenario
