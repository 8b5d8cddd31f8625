// RollingOls / linear_fit_from_sums: the running-sum OLS behind
// core::RollingPoolPlanner (linear %CPU, quadratic latency) and
// ml::TrendSeasonDecomposition (linear trend). The quadratic fit's
// accuracy, eviction and drift are tested through the planner
// (tests/core/rolling_plan_test.cc); its fallbacks are tested here.
#include "stats/rolling_ols.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace headroom::stats {
namespace {

TEST(LinearFitFromSums, DegeneratesToFlatMean) {
  // Fewer than 2 points: flat fit through the mean.
  const LinearFit empty = linear_fit_from_sums(0, 0, 0, 0, 0, 0);
  EXPECT_DOUBLE_EQ(empty.slope, 0.0);
  EXPECT_DOUBLE_EQ(empty.intercept, 0.0);
  EXPECT_DOUBLE_EQ(empty.r_squared, 0.0);

  const LinearFit one = linear_fit_from_sums(1, 2.0, 4.0, 7.0, 14.0, 49.0);
  EXPECT_DOUBLE_EQ(one.slope, 0.0);
  EXPECT_DOUBLE_EQ(one.intercept, 7.0);

  // Zero x-variance (all x equal): flat fit through the y mean.
  const LinearFit flat = linear_fit_from_sums(2, 4.0, 8.0, 10.0, 20.0, 58.0);
  EXPECT_DOUBLE_EQ(flat.slope, 0.0);
  EXPECT_DOUBLE_EQ(flat.intercept, 5.0);
}

TEST(LinearFitFromSums, ExactLine) {
  // y = 3x + 1 over x = 0, 1, 2: sums by hand.
  const LinearFit fit =
      linear_fit_from_sums(3, 3.0, 5.0, 12.0, 18.0, 66.0);
  EXPECT_DOUBLE_EQ(fit.slope, 3.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 1.0);
  EXPECT_DOUBLE_EQ(fit.r_squared, 1.0);
  EXPECT_DOUBLE_EQ(fit.predict(10.0), 31.0);
}

TEST(RollingOls, RejectsZeroLookback) {
  EXPECT_THROW(RollingOls{0}, std::invalid_argument);
}

TEST(RollingOls, FitsALineIncrementally) {
  RollingOls ols(100);
  EXPECT_EQ(ols.size(), 0u);
  for (int i = 0; i < 50; ++i) {
    ols.add(static_cast<double>(i), 2.0 * i + 5.0);
  }
  EXPECT_EQ(ols.size(), 50u);
  const LinearFit fit = ols.fit();
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 5.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(RollingOls, EvictionForgetsOldRegime) {
  // First a flat regime, then a steep one; with the ring sized to the
  // second regime only, the fit must match the second line exactly.
  RollingOls ols(10);
  for (int i = 0; i < 25; ++i) ols.add(static_cast<double>(i), 3.0);
  for (int i = 25; i < 40; ++i) {
    ols.add(static_cast<double>(i), 10.0 * i - 100.0);
  }
  EXPECT_EQ(ols.size(), 10u);
  const LinearFit fit = ols.fit();
  EXPECT_NEAR(fit.slope, 10.0, 1e-6);
  EXPECT_NEAR(fit.intercept, -100.0, 1e-4);
}

TEST(RollingOls, MatchesBatchFitAfterManyEvictions) {
  // Drift control: after thousands of evictions (with periodic rebuilds)
  // the running sums must still agree with a from-scratch fit over the
  // ring's exact contents.
  const std::size_t lookback = 64;
  RollingOls ols(lookback);
  std::vector<double> xs, ys;
  std::uint64_t state = 42;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double y = 0.7 * i + static_cast<double>(state >> 48) / 1000.0;
    ols.add(static_cast<double>(i), y);
    xs.push_back(static_cast<double>(i));
    ys.push_back(y);
  }
  EXPECT_GT(ols.rebuilds(), 0u);

  double sx = 0, sx2 = 0, sy = 0, sxy = 0, sy2 = 0;
  for (std::size_t i = xs.size() - lookback; i < xs.size(); ++i) {
    sx += xs[i];
    sx2 += xs[i] * xs[i];
    sy += ys[i];
    sxy += xs[i] * ys[i];
    sy2 += ys[i] * ys[i];
  }
  const LinearFit batch = linear_fit_from_sums(lookback, sx, sx2, sy, sxy, sy2);
  const LinearFit rolling = ols.fit();
  EXPECT_NEAR(rolling.slope, batch.slope, 1e-9);
  EXPECT_NEAR(rolling.intercept, batch.intercept, 1e-6);
}

TEST(RollingOls, QuadraticFallsBackToTheMean) {
  RollingOls ols(8);
  EXPECT_TRUE(ols.quadratic().coeffs.empty());  // no points, no curve
  ols.add(1.0, 3.0);
  ols.add(2.0, 5.0);
  // Fewer than 3 points: flat through the mean.
  EXPECT_EQ(ols.quadratic().coeffs, std::vector<double>{4.0});
  // Every x equal: the normal equations are singular.
  RollingOls constant(8);
  for (int i = 0; i < 5; ++i) constant.add(7.0, 2.0 * i);
  const PolynomialFit flat = constant.quadratic();
  EXPECT_EQ(flat.coeffs, std::vector<double>{4.0});
  EXPECT_EQ(flat.r_squared, 0.0);
}

}  // namespace
}  // namespace headroom::stats
