// Response-surface-methodology capacity planner (paper §II-B2, Fig. 7).
//
// Iterates: (1) model the accumulated observations — per total-load
// partition, latency as a quadratic in server count (Eq. 1, RANSAC) —
// (2) extrapolate along the model's gradient to the next candidate server
// count, (3) run a bounded reduction experiment there, (4) refit. Stops
// when the model predicts the next reduction would breach the latency SLO
// (minus a safety margin), when reductions stop being worthwhile, or at the
// iteration budget. "It is best to remove servers slowly and monitor the
// accuracy of these forecasts" (§III-A) — the per-iteration step is capped.
#pragma once

#include <cstddef>
#include <vector>

#include "core/experiment_backend.h"
#include "core/load_partition.h"

namespace headroom::core {

struct RsmOptions {
  double latency_slo_ms = 50.0;
  /// Safety margin subtracted from the SLO when extrapolating.
  double slo_margin_ms = 1.0;
  /// Cap on per-iteration reduction (fraction of current serving count).
  double max_step_fraction = 0.15;
  std::size_t max_iterations = 6;
  /// Traffic time observed per iteration; the paper used ~one week.
  telemetry::SimTime iteration_duration = 2 * 86400;
  /// Baseline observation before the first reduction.
  telemetry::SimTime baseline_duration = 2 * 86400;
  std::size_t load_partitions = 4;
  ServerCountModelOptions model_options;
  /// Never reduce below this fraction of the starting count.
  double min_serving_fraction = 0.30;
};

struct RsmIteration {
  std::size_t serving = 0;          ///< Serving count during this iteration.
  double observed_latency_p95_ms = 0.0;  ///< Mean of window P95s.
  double observed_p95_load = 0.0;        ///< P95 of total RPS.
  double predicted_latency_ms = 0.0;     ///< Model's prediction beforehand
                                         ///< (0 for the baseline).
};

struct RsmResult {
  std::vector<RsmIteration> iterations;  ///< Baseline first.
  std::size_t starting_serving = 0;
  std::size_t recommended_serving = 0;
  bool slo_limit_reached = false;   ///< Stopped because the SLO bound bit.
  ServerCountLatencyModel model;    ///< Final fit on all observations.
  ExperimentObservations history;   ///< Everything observed.

  [[nodiscard]] double reduction_fraction() const noexcept {
    if (starting_serving == 0) return 0.0;
    return 1.0 - static_cast<double>(recommended_serving) /
                     static_cast<double>(starting_serving);
  }
};

/// Incremental form of the RSM optimization: the same algorithm as
/// RsmPlanner::optimize, cut at its observation points so a live feed can
/// drive it window-by-window. advance() runs the state machine as far as
/// the backend's data allows — it refits the response-surface model only
/// when the accumulated history actually grew (the previous fit is reused
/// otherwise, so a pending poll costs O(1), and re-planning after a new
/// window costs O(window), not O(history) refits) — and reports pending
/// instead of blocking when the backend's try_observe() does.
///
/// Driving a session to completion performs bit-identically the operations
/// of the batch path: RsmPlanner::optimize is itself implemented as "create
/// a session, advance it to completion", which is what pins the streaming
/// pipeline's goldens to the batch ones.
class RsmSession {
 public:
  /// `backend` must outlive the session. Captures the starting serving
  /// count, exactly like the head of the batch optimize.
  RsmSession(RsmOptions options, PoolExperimentBackend* backend);

  /// Adopts `history` as the already-observed baseline instead of spending
  /// backend windows observing one — serve mode reuses the observation
  /// phase the pipeline already measured (trading the golden-pinned
  /// baseline for an immediate first reduction). Must precede the first
  /// advance(); throws std::logic_error otherwise or std::invalid_argument
  /// for an empty history.
  void seed_baseline(const ExperimentObservations& history);

  /// Drives the optimization until it completes or the backend reports
  /// pending data. Returns true when complete (result() is valid); false
  /// when waiting on the feed — call again after more windows arrive.
  /// Backend exceptions (trace exhausted, divergence) propagate.
  bool advance();

  /// Failsafe termination of a pending experiment (degraded feed: the
  /// staleness budget ran out mid-reduction). Restores serving to the
  /// validated pre-experiment count — on stale data capacity is never
  /// shrunk, so the recommendation is the starting count, the paper's
  /// worst-case buffer. The session becomes done() with aborted() set; a
  /// no-op when already done.
  void abort_failsafe();

  [[nodiscard]] bool done() const noexcept { return state_ == State::kDone; }
  /// True when abort_failsafe() ended the session.
  [[nodiscard]] bool aborted() const noexcept { return aborted_; }
  /// Observation the session is currently waiting for, as (duration
  /// seconds); 0 when it is not waiting (not yet started, or done).
  [[nodiscard]] telemetry::SimTime pending_duration() const noexcept;
  /// Valid once done(); throws std::logic_error before that.
  [[nodiscard]] const RsmResult& result() const;
  [[nodiscard]] RsmResult take_result();

  [[nodiscard]] const RsmOptions& options() const noexcept { return options_; }

 private:
  enum class State { kBaseline, kDecide, kObserve, kFinalize, kDone };

  /// Model + P95 load over the current history, refit only when the
  /// history grew since the last fit (the warm start).
  void refresh_fit();

  RsmOptions options_;
  PoolExperimentBackend* backend_;
  RsmResult result_;
  State state_ = State::kBaseline;
  bool seeded_ = false;
  bool aborted_ = false;
  std::size_t current_ = 0;
  std::size_t floor_serving_ = 0;
  double slo_target_ = 0.0;
  bool reduced_once_ = false;
  std::size_t iter_ = 0;
  std::size_t pending_next_ = 0;
  double pending_predicted_ = 0.0;
  ServerCountLatencyModel model_;
  double p95_load_ = 0.0;
  std::size_t fitted_size_ = 0;
  bool fit_valid_ = false;
};

class RsmPlanner {
 public:
  explicit RsmPlanner(RsmOptions options = {});

  /// Runs the full iterative optimization against the backend: an
  /// RsmSession advanced to completion — the batch entry point replays
  /// every window through the incremental path. The backend is left at the
  /// recommended serving count. Throws std::runtime_error if the backend
  /// reports pending data (batch optimize needs a backend that can always
  /// complete an observation — the simulator or a sealed trace; a live
  /// feed is driven through RsmSession instead).
  [[nodiscard]] RsmResult optimize(PoolExperimentBackend& backend) const;

  [[nodiscard]] const RsmOptions& options() const noexcept { return options_; }

 private:
  RsmOptions options_;
};

}  // namespace headroom::core
