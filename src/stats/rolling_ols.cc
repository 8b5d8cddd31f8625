#include "stats/rolling_ols.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "stats/matrix.h"

namespace headroom::stats {

LinearFit linear_fit_from_sums(std::size_t count, double sx, double sx2,
                               double sy, double sxy, double sy2) {
  const auto n = static_cast<double>(count);
  LinearFit fit;
  fit.n = count;
  const double x_var = n * sx2 - sx * sx;
  if (count >= 2 && std::fabs(x_var) > 1e-12) {
    fit.slope = (n * sxy - sx * sy) / x_var;
    fit.intercept = (sy - fit.slope * sx) / n;
    // R² = 1 - SS_res / SS_tot, both expanded into the running sums.
    const double ss_tot = sy2 - sy * sy / n;
    const double ss_res =
        sy2 - 2.0 * (fit.intercept * sy + fit.slope * sxy) +
        (fit.intercept * fit.intercept * n +
         2.0 * fit.intercept * fit.slope * sx + fit.slope * fit.slope * sx2);
    fit.r_squared = ss_tot > 1e-12 ? std::max(0.0, 1.0 - ss_res / ss_tot) : 0.0;
  } else if (count > 0) {
    fit.intercept = sy / n;  // flat fit through the mean, like fit_linear
  }
  return fit;
}

RollingOls::RollingOls(std::size_t lookback) : lookback_(lookback) {
  if (lookback_ == 0) {
    throw std::invalid_argument("RollingOls: lookback must be positive");
  }
}

void RollingOls::accumulate(const Point& p, double sign) {
  const double x2 = p.x * p.x;
  sx_ += sign * p.x;
  sx2_ += sign * x2;
  sx3_ += sign * x2 * p.x;
  sx4_ += sign * x2 * x2;
  sy_ += sign * p.y;
  sxy_ += sign * p.x * p.y;
  sx2y_ += sign * x2 * p.y;
  sy2_ += sign * p.y * p.y;
}

void RollingOls::rebuild_sums() {
  sx_ = sx2_ = sx3_ = sx4_ = 0.0;
  sy_ = sxy_ = sx2y_ = sy2_ = 0.0;
  for (const Point& p : ring_) accumulate(p, 1.0);
  evictions_since_rebuild_ = 0;
  ++rebuilds_;
}

void RollingOls::add(double x, double y) {
  const Point p{x, y};
  ring_.push_back(p);
  accumulate(p, 1.0);
  if (ring_.size() > lookback_) {
    accumulate(ring_.front(), -1.0);
    ring_.pop_front();
    // Subtracting departures accumulates rounding; rebuilding from the
    // ring once per lookback of evictions keeps the amortized cost O(1)
    // while bounding the drift to one lookback's worth.
    if (++evictions_since_rebuild_ >= lookback_) {
      rebuild_sums();
    }
  }
}

LinearFit RollingOls::fit() const {
  return linear_fit_from_sums(ring_.size(), sx_, sx2_, sy_, sxy_, sy2_);
}

PolynomialFit RollingOls::quadratic() const {
  const auto n = static_cast<double>(ring_.size());
  PolynomialFit fit;
  fit.n = ring_.size();
  if (ring_.size() >= 3) {
    // Normal equations: entry (r, k) is Σx^(r+k).
    const double moments[5] = {n, sx_, sx2_, sx3_, sx4_};
    Matrix a(3, 3);
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t k = 0; k < 3; ++k) a.at(r, k) = moments[r + k];
    }
    std::optional<std::vector<double>> solved =
        solve_linear_system(std::move(a), {sy_, sxy_, sx2y_});
    if (solved) {
      const std::vector<double>& c = *solved;
      // R² = 1 - SS_res / SS_tot, both expanded into the running sums.
      const double ss_tot = sy2_ - sy_ * sy_ / n;
      const double s_hat = c[0] * sy_ + c[1] * sxy_ + c[2] * sx2y_;
      const double s_hat2 = c[0] * c[0] * n + c[1] * c[1] * sx2_ +
                            c[2] * c[2] * sx4_ + 2.0 * c[0] * c[1] * sx_ +
                            2.0 * c[0] * c[2] * sx2_ + 2.0 * c[1] * c[2] * sx3_;
      const double ss_res = sy2_ - 2.0 * s_hat + s_hat2;
      fit.r_squared =
          ss_tot > 1e-12 ? std::max(0.0, 1.0 - ss_res / ss_tot) : 0.0;
      fit.coeffs = std::move(*solved);
      return fit;
    }
  }
  if (!ring_.empty()) fit.coeffs = {sy_ / n};  // flat fit through the mean
  return fit;
}

}  // namespace headroom::stats
