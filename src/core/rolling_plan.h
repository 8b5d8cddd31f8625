// Per-window incremental headroom planning over a rolling lookback.
//
// Serve mode re-emits a headroom recommendation for every pool after every
// telemetry window. Refitting PoolResponseModel from scratch each time
// would make a window cost O(history); this planner instead keeps the two
// response curves in stats::RollingOls rings of the most recent windows —
// the linear %CPU fit and the quadratic latency fit, both over RPS per
// server — plus the ring's loads in ascending order. add_window() folds a
// window into the fits in O(1) amortized and moves one load in and one out
// of the sorted set (a binary search and a memmove of at most lookback
// doubles); plan() assembles the model in O(1) and reads the exact P95
// straight off the sorted set in O(1). Cost per window is therefore flat
// in feed length, never O(history). What the planner adds is its own: the
// healed-window discount, the P95 operating point, and the call into
// HeadroomOptimizer.
//
// The rolling fits are ordinary least squares (no RANSAC — robustness over
// a short, recent window buys little and would cost a full refit); the
// golden-pinned pipeline plan still comes from PoolResponseModel::fit over
// the full observation phase. Rolling plans are the live operator view.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/headroom_optimizer.h"
#include "stats/rolling_ols.h"

namespace headroom::core {

class RollingPoolPlanner {
 public:
  struct Options {
    /// Windows retained in the ring (the fit lookback). Must be positive;
    /// zero throws std::invalid_argument.
    std::size_t lookback_windows = 720;  ///< One day of 120 s windows.
    /// Minimum ring occupancy before plan() yields anything; below it the
    /// fits are too thin to trust (mirrors the model's min points-per-fit).
    std::size_t min_windows = 8;
  };

  RollingPoolPlanner(HeadroomPolicy policy, Options options);

  /// Folds one completed window into both fits, evicting the oldest
  /// window once the ring is full. Inputs must be finite (the sorted load
  /// set relies on a total order); the health monitor quarantines
  /// non-finite samples before they reach a planner. A window marked
  /// `healed` (gap-fill synthesized by the degradation layer, not observed
  /// telemetry) is discounted: counted in untrusted_windows() but never
  /// folded into the fits, so the rolling model only ever fits real data
  /// and a healed gap leaves plan() exactly where the last real window
  /// left it.
  void add_window(double rps_per_server, double cpu_pct,
                  double latency_p95_ms, bool healed = false);

  /// Headroom plan at the current rolling operating point, or nullopt
  /// until min_windows windows have arrived.
  [[nodiscard]] std::optional<HeadroomPlan> plan(
      std::size_t current_servers) const;

  /// Rolling response model over the ring (also what plan() uses).
  /// Meaningful once size() >= min_windows.
  [[nodiscard]] PoolResponseModel model() const;

  [[nodiscard]] std::size_t size() const noexcept { return cpu_.size(); }
  /// Full-ring sum rebuilds performed so far (drift-control gauge). Both
  /// fits see the same windows, so they rebuild together; one is counted.
  [[nodiscard]] std::size_t rebuilds() const noexcept {
    return cpu_.rebuilds();
  }
  /// Healed windows offered and discounted (degraded-feed gauge).
  [[nodiscard]] std::size_t untrusted_windows() const noexcept {
    return untrusted_windows_;
  }

 private:
  HeadroomPolicy policy_;
  std::size_t min_windows_;
  stats::RollingOls cpu_;      ///< (RPS per server, %CPU), fit linearly.
  stats::RollingOls latency_;  ///< (RPS per server, latency P95), quadratic.
  /// The ring's RPS per server in ascending order: the P95 operating point
  /// is percentile_sorted over it, bit-identical to stats::percentile over
  /// the ring (the same two order statistics, the same interpolation).
  std::vector<double> sorted_rps_;
  std::size_t untrusted_windows_ = 0;
};

}  // namespace headroom::core
