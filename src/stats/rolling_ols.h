// Rolling one-predictor least squares over a bounded ring of observations.
//
// The one home for the project's incremental fits: serve's per-window
// response curves (core::RollingPoolPlanner — a line for %CPU, a
// quadratic for latency) and the forecaster's growth trend
// (ml::TrendSeasonDecomposition). add() is O(1) amortized — eviction
// subtracts the departing point's terms, and the sums are rebuilt from
// the ring once per lookback of evictions to wash out floating-point
// drift — and fit() / quadratic() assemble a fit from the running sums in
// O(1).
#pragma once

#include <cstddef>
#include <deque>

#include "stats/linear_model.h"
#include "stats/polynomial.h"

namespace headroom::stats {

/// Assembles y = slope*x + intercept (+ R²) from OLS running sums:
/// count points, Σx, Σx², Σy, Σxy, Σy². With fewer than 2 points or zero
/// x-variance, returns a flat fit through the mean with r_squared = 0.
[[nodiscard]] LinearFit linear_fit_from_sums(std::size_t count, double sx,
                                             double sx2, double sy, double sxy,
                                             double sy2);

class RollingOls {
 public:
  struct Point {
    double x = 0.0;
    double y = 0.0;
  };

  /// `lookback` bounds the ring (must be positive): only the most recent
  /// `lookback` points participate in the fit.
  explicit RollingOls(std::size_t lookback);

  /// Folds one (x, y) point, evicting the oldest once the ring is full.
  void add(double x, double y);

  /// The linear OLS fit over the ring's current contents.
  [[nodiscard]] LinearFit fit() const;

  /// The quadratic OLS fit y = c0 + c1 x + c2 x² over the ring's current
  /// contents. With fewer than 3 points or a singular system (e.g. every
  /// x equal), returns a flat fit {mean y} with r_squared = 0.
  [[nodiscard]] PolynomialFit quadratic() const;

  /// The resident points, oldest first.
  [[nodiscard]] const std::deque<Point>& points() const noexcept {
    return ring_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t lookback() const noexcept { return lookback_; }
  /// Full-ring sum rebuilds performed so far (drift-control gauge).
  [[nodiscard]] std::size_t rebuilds() const noexcept { return rebuilds_; }

 private:
  void accumulate(const Point& p, double sign);
  void rebuild_sums();

  std::size_t lookback_;
  std::deque<Point> ring_;
  // Powers of x up to x⁴ for the quadratic's normal equations, cross
  // terms up to x²y, and Σy² for R².
  double sx_ = 0.0, sx2_ = 0.0, sx3_ = 0.0, sx4_ = 0.0;
  double sy_ = 0.0, sxy_ = 0.0, sx2y_ = 0.0, sy2_ = 0.0;
  std::size_t evictions_since_rebuild_ = 0;
  std::size_t rebuilds_ = 0;
};

}  // namespace headroom::stats
