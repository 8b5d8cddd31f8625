// RollingPoolPlanner: the O(1)-per-window incremental fits behind serve
// mode's per-window recommendations. The invariants under test: the
// running-sum OLS recovers the generating curves exactly (and matches the
// batch fitter on the same ring), eviction forgets the pre-lookback
// regime, periodic rebuilds bound floating-point drift, plan() only
// speaks once the ring holds enough windows to trust, a seeded ring pins
// every coefficient bit for bit, and the incrementally sorted P95 equals
// a fresh percentile over the ring at every window.
#include "core/rolling_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/pool_model.h"
#include "stats/percentile.h"
#include "telemetry/time_series.h"

namespace headroom::core {
namespace {

HeadroomPolicy test_policy() {
  HeadroomPolicy policy;
  policy.qos.latency.p95_ms = 100.0;
  return policy;
}

RollingPoolPlanner::Options small_ring(std::size_t lookback,
                                       std::size_t min_windows = 4) {
  RollingPoolPlanner::Options opt;
  opt.lookback_windows = lookback;
  opt.min_windows = min_windows;
  return opt;
}

double cpu_curve(double rps) { return 2.0 + 0.03 * rps; }
double latency_curve(double rps) {
  return 20.0 + 0.004 * rps + 0.00002 * rps * rps;
}

TEST(RollingPoolPlanner, RejectsZeroLookback) {
  EXPECT_THROW(RollingPoolPlanner(test_policy(), small_ring(0)),
               std::invalid_argument);
}

TEST(RollingPoolPlanner, NoPlanBelowMinWindows) {
  RollingPoolPlanner planner(test_policy(), small_ring(64, 4));
  for (int i = 0; i < 3; ++i) {
    planner.add_window(100.0 + i, cpu_curve(100.0 + i),
                       latency_curve(100.0 + i));
    EXPECT_EQ(planner.plan(10), std::nullopt) << "after window " << i;
  }
  planner.add_window(104.0, cpu_curve(104.0), latency_curve(104.0));
  EXPECT_TRUE(planner.plan(10).has_value());
  EXPECT_EQ(planner.plan(0), std::nullopt);  // no servers, no plan
}

TEST(RollingPoolPlanner, RecoversGeneratingCurvesExactly) {
  RollingPoolPlanner planner(test_policy(), small_ring(256));
  for (int i = 0; i < 100; ++i) {
    const double rps = 80.0 + 1.7 * i;
    planner.add_window(rps, cpu_curve(rps), latency_curve(rps));
  }
  const PoolResponseModel model = planner.model();
  for (const double rps : {90.0, 150.0, 230.0}) {
    EXPECT_NEAR(model.predict_cpu_pct(rps), cpu_curve(rps), 1e-6);
    EXPECT_NEAR(model.predict_latency_ms(rps), latency_curve(rps), 1e-6);
  }
  EXPECT_GT(model.cpu_fit().r_squared, 0.999);
  EXPECT_GT(model.latency_fit().r_squared, 0.999);
}

TEST(RollingPoolPlanner, MatchesTheBatchFitterOnTheSameRing) {
  RollingPoolPlanner planner(test_policy(), small_ring(256));
  telemetry::AlignedPair rps_vs_cpu;
  telemetry::AlignedPair rps_vs_latency;
  for (int i = 0; i < 64; ++i) {
    // Deterministic wobble so neither fit is exact — the comparison is
    // between two fitting procedures, not against the ground truth.
    const double rps = 100.0 + 2.0 * i;
    const double wobble = (i % 7 - 3) * 0.05;
    const double cpu = cpu_curve(rps) + wobble;
    const double latency = latency_curve(rps) - wobble;
    planner.add_window(rps, cpu, latency);
    rps_vs_cpu.x.push_back(rps);
    rps_vs_cpu.y.push_back(cpu);
    rps_vs_latency.x.push_back(rps);
    rps_vs_latency.y.push_back(latency);
  }
  PoolModelOptions plain;
  plain.ransac_threshold_ms = 0.0;  // plain least squares, like the sums
  const PoolResponseModel batch =
      PoolResponseModel::fit(rps_vs_cpu, rps_vs_latency, plain);
  const PoolResponseModel rolling = planner.model();
  for (const double rps : {110.0, 160.0, 220.0}) {
    EXPECT_NEAR(rolling.predict_cpu_pct(rps), batch.predict_cpu_pct(rps),
                1e-7);
    EXPECT_NEAR(rolling.predict_latency_ms(rps),
                batch.predict_latency_ms(rps), 1e-6);
  }
}

TEST(RollingPoolPlanner, EvictionForgetsThePreLookbackRegime) {
  const std::size_t lookback = 32;
  RollingPoolPlanner planner(test_policy(), small_ring(lookback));
  // Regime A: steep latency. Entirely evicted by the end of the test.
  for (int i = 0; i < 64; ++i) {
    const double rps = 100.0 + i;
    planner.add_window(rps, cpu_curve(rps), 200.0 + 3.0 * rps);
  }
  // Regime B: the gentle curve, filling the whole ring.
  for (int i = 0; i < 64; ++i) {
    const double rps = 100.0 + i;
    planner.add_window(rps, cpu_curve(rps), latency_curve(rps));
  }
  EXPECT_EQ(planner.size(), lookback);
  const PoolResponseModel model = planner.model();
  EXPECT_NEAR(model.predict_latency_ms(140.0), latency_curve(140.0), 1e-5);
}

TEST(RollingPoolPlanner, PeriodicRebuildWashesOutDrift) {
  const std::size_t lookback = 16;
  RollingPoolPlanner planner(test_policy(), small_ring(lookback));
  // Thousands of evictions of awkward magnitudes accumulate subtraction
  // error in the running sums; the periodic rebuild bounds it.
  for (int i = 0; i < 5000; ++i) {
    const double rps = 1000.0 + 900.0 * std::sin(0.1 * i);
    planner.add_window(rps, cpu_curve(rps), latency_curve(rps));
  }
  EXPECT_GE(planner.rebuilds(), (5000u - lookback) / lookback);
  // A fresh planner fed only the resident windows is the drift-free
  // reference; the long-lived planner must still agree closely.
  RollingPoolPlanner fresh(test_policy(), small_ring(lookback));
  for (int i = 5000 - static_cast<int>(lookback); i < 5000; ++i) {
    const double rps = 1000.0 + 900.0 * std::sin(0.1 * i);
    fresh.add_window(rps, cpu_curve(rps), latency_curve(rps));
  }
  const PoolResponseModel aged = planner.model();
  const PoolResponseModel reference = fresh.model();
  for (const double rps : {400.0, 1000.0, 1800.0}) {
    EXPECT_NEAR(aged.predict_latency_ms(rps),
                reference.predict_latency_ms(rps), 1e-5);
    EXPECT_NEAR(aged.predict_cpu_pct(rps), reference.predict_cpu_pct(rps),
                1e-6);
  }
}

TEST(RollingPoolPlanner, ConstantLoadFallsBackToFlatFits) {
  RollingPoolPlanner planner(test_policy(), small_ring(64));
  for (int i = 0; i < 10; ++i) {
    planner.add_window(100.0, 5.0, 30.0);  // zero variance in x
  }
  const PoolResponseModel model = planner.model();
  EXPECT_DOUBLE_EQ(model.predict_cpu_pct(100.0), 5.0);
  EXPECT_DOUBLE_EQ(model.predict_cpu_pct(500.0), 5.0);
  EXPECT_DOUBLE_EQ(model.predict_latency_ms(500.0), 30.0);
}

TEST(RollingPoolPlanner, SeededRingPinsEveryCoefficient) {
  // A noisy ring that evicts 68 windows (two full-ring rebuilds) and
  // discounts one healed window. The coefficients are pinned bit for bit,
  // so a failure names the one that moved.
  const std::size_t lookback = 32;
  RollingPoolPlanner planner(test_policy(), small_ring(lookback, 8));
  std::mt19937_64 rng(33);
  const auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  for (int i = 0; i < 101; ++i) {
    const double rps = 60.0 + 240.0 * unit();
    const double cpu = cpu_curve(rps) + (unit() - 0.5);
    const double latency = latency_curve(rps) + 2.0 * (unit() - 0.5);
    planner.add_window(rps, cpu, latency, /*healed=*/i == 50);
  }
  EXPECT_EQ(planner.size(), lookback);
  EXPECT_EQ(planner.rebuilds(), 2u);
  EXPECT_EQ(planner.untrusted_windows(), 1u);

  const PoolResponseModel model = planner.model();
  EXPECT_EQ(model.cpu_fit().slope, 0x1.e0916568d66e7p-6);
  EXPECT_EQ(model.cpu_fit().intercept, 0x1.1375d96f6d908p+1);
  EXPECT_EQ(model.cpu_fit().r_squared, 0x1.f6b33e354651bp-1);
  const stats::PolynomialFit& latency = model.latency_fit();
  ASSERT_EQ(latency.coeffs.size(), 3u);
  EXPECT_EQ(latency.coeffs[0], 0x1.3b749196b8792p+4);
  EXPECT_EQ(latency.coeffs[1], 0x1.7c76e8c7e1f37p-7);
  EXPECT_EQ(latency.coeffs[2], -0x1.0b82f98aaab66p-17);
  EXPECT_EQ(latency.r_squared, 0x1.31169fd0c45ep-1);

  const std::optional<HeadroomPlan> plan = planner.plan(24);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->recommended_servers, 17u);
}

TEST(RollingPoolPlanner, SortedP95MatchesAFreshPercentileEveryWindow) {
  // The planner keeps the ring's loads sorted incrementally; at every
  // window its anchor must equal stats::percentile over the ring's points,
  // bit for bit. Loads repeat (a coarse grid), healed windows are offered
  // and skipped, and the ring turns over more than twice, so eviction
  // removes duplicates and the sorted set must drop exactly one copy.
  const std::size_t lookback = 48;
  RollingPoolPlanner planner(test_policy(), small_ring(lookback, 4));
  stats::RollingOls ring(lookback);  // the ring, for its points()
  std::mt19937_64 rng(34);
  std::size_t planned = 0;
  for (int i = 0; i < 200; ++i) {
    const double rps = 60.0 + 7.5 * static_cast<double>(rng() % 24);
    const bool healed = rng() % 9 == 0;
    planner.add_window(rps, cpu_curve(rps), latency_curve(rps), healed);
    if (!healed) ring.add(rps, 0.0);
    ASSERT_EQ(planner.size(), ring.size());
    const std::optional<HeadroomPlan> plan = planner.plan(24);
    if (!plan) continue;
    ++planned;
    std::vector<double> loads;
    for (const stats::RollingOls::Point& p : ring.points()) {
      loads.push_back(p.x);
    }
    EXPECT_EQ(plan->anchor_rps_per_server, stats::percentile(loads, 95.0))
        << "window " << i;
  }
  EXPECT_GT(planner.untrusted_windows(), 0u);
  EXPECT_GT(200 - planner.untrusted_windows(), 2 * lookback);
  EXPECT_GT(planned, 2 * lookback);
}

TEST(RollingPoolPlanner, SlackLatencyMeansAReductionPlan) {
  RollingPoolPlanner planner(test_policy(), small_ring(256, 8));
  for (int i = 0; i < 64; ++i) {
    const double rps = 100.0 + i;
    planner.add_window(rps, cpu_curve(rps), latency_curve(rps));
  }
  const std::optional<HeadroomPlan> plan = planner.plan(24);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->current_servers, 24u);
  EXPECT_GE(plan->recommended_servers, 1u);
  // Latency ~25 ms against a 100 ms SLO: the pool is oversized.
  EXPECT_LT(plan->recommended_servers, 24u);
  // Headroom demands push the stressed operating point above the anchor.
  EXPECT_GT(plan->stressed_rps_per_server, plan->anchor_rps_per_server);
}

}  // namespace
}  // namespace headroom::core
