#include "baseline/queueing_planner.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "planner_test_surface.h"

namespace headroom::baseline {
namespace {

using planner_test::make_window;
using planner_test::test_context;
using planner_test::test_surface;

/// -ln(0.05): the exponential P95 in service times.
constexpr double kExpP95Factor = 2.9957322735539909;

QueueingPlannerOptions default_options() {
  QueueingPlannerOptions opt;
  opt.service_time_ms = 5.0;
  opt.concurrency_per_server = 16.0;
  opt.max_utilization = 0.85;
  return opt;
}

TEST(QueueingPlanner, RejectsBadOptions) {
  QueueingPlannerOptions bad = default_options();
  bad.service_time_ms = 0.0;
  EXPECT_THROW(QueueingPlanner{bad}, std::invalid_argument);
}

TEST(QueueingPlanner, PlanSatisfiesSloAndUtilizationCeiling) {
  const QueueingPlanner planner(default_options());
  const core::LatencySlo slo{20.0};
  const QueueingPlan plan = planner.plan(10000.0, slo);
  EXPECT_GE(plan.servers, 1u);
  EXPECT_LE(plan.predicted_p95_latency_ms, 20.0);
  EXPECT_LE(plan.utilization, 0.85 + 1e-9);
}

TEST(QueueingPlanner, PlanIsMinimal) {
  const QueueingPlanner planner(default_options());
  const core::LatencySlo slo{20.0};
  const QueueingPlan plan = planner.plan(10000.0, slo);
  if (plan.servers > 1) {
    // One fewer server violates either the SLO or the utilization ceiling.
    const double mu = 1000.0 / 5.0;
    const double fewer_util =
        10000.0 / (static_cast<double>(plan.servers - 1) * 16.0 * mu);
    const double fewer_latency =
        planner.predict_p95_latency_ms(10000.0, plan.servers - 1);
    EXPECT_TRUE(fewer_latency > 20.0 || fewer_util > 0.85);
  }
}

TEST(QueueingPlanner, MoreLoadMoreServers) {
  const QueueingPlanner planner(default_options());
  const core::LatencySlo slo{20.0};
  EXPECT_LT(planner.plan(5000.0, slo).servers,
            planner.plan(20000.0, slo).servers);
}

TEST(QueueingPlanner, TighterSloNeverFewerServers) {
  const QueueingPlanner planner(default_options());
  EXPECT_LE(planner.plan(10000.0, core::LatencySlo{50.0}).servers,
            planner.plan(10000.0, core::LatencySlo{15.6}).servers);
}

TEST(QueueingPlanner, PredictionDecreasesWithServers) {
  const QueueingPlanner planner(default_options());
  // Near saturation the smaller pool queues; the larger one barely waits.
  EXPECT_GT(planner.predict_p95_latency_ms(120000.0, 40),
            planner.predict_p95_latency_ms(120000.0, 80));
  // Far from saturation both are service-time bound (no strict ordering).
  EXPECT_GE(planner.predict_p95_latency_ms(10000.0, 40),
            planner.predict_p95_latency_ms(10000.0, 80));
}

TEST(QueueingPlanner, StaleServiceTimeMisSizesThePool) {
  // The paper's core criticism of white-box models: parameters go stale.
  // The "real" system needs 8 ms per request, but the model still believes
  // 4 ms — it recommends roughly half the servers actually needed.
  QueueingPlannerOptions stale = default_options();
  stale.service_time_ms = 4.0;
  QueueingPlannerOptions truth = default_options();
  truth.service_time_ms = 8.0;
  const core::LatencySlo slo{25.0};
  const QueueingPlan stale_plan = QueueingPlanner(stale).plan(12000.0, slo);
  const QueueingPlan true_plan = QueueingPlanner(truth).plan(12000.0, slo);
  EXPECT_LT(static_cast<double>(stale_plan.servers),
            0.6 * static_cast<double>(true_plan.servers));
}

// Regression: with fractional concurrency_per_server, plan()'s utilization
// floor used the un-truncated product servers * concurrency while
// predict_p95_latency_ms() truncated it to the integer c the M/M/c formulas
// need. The search could then start below the real floor and return a plan
// whose *effective* utilization exceeds the ceiling it reports.
TEST(QueueingPlanner, FractionalConcurrencyRespectsUtilizationCeiling) {
  QueueingPlannerOptions opt = default_options();
  opt.service_time_ms = 1.0;  // mu = 1000 per logical server
  opt.concurrency_per_server = 1.7;
  opt.max_utilization = 0.85;
  const QueueingPlanner planner(opt);
  const QueueingPlan plan = planner.plan(2800.0, core::LatencySlo{50.0});
  // Pre-fix: servers = ceil(2800 / (0.85 * 1.7 * 1000)) = 2, but the
  // truncated c_eff = floor(2 * 1.7) = 3, so the pool really runs at
  // 2800 / 3000 = 0.933 while reporting 0.82. Post-fix the floor demands
  // c_eff >= 4, i.e. servers >= 3.
  EXPECT_GE(plan.servers, 3u);
  const double mu = 1000.0;
  const double effective_util =
      2800.0 /
      (static_cast<double>(planner.effective_servers(plan.servers)) * mu);
  EXPECT_LE(effective_util, 0.85 + 1e-9);
  EXPECT_NEAR(plan.utilization, effective_util, 1e-12);
}

TEST(QueueingPlanner, HalfConcurrencyPerServer) {
  // concurrency_per_server = 0.5: every logical server costs two physical
  // ones, and odd physical counts waste the remainder to truncation.
  QueueingPlannerOptions opt = default_options();
  opt.service_time_ms = 1.0;
  opt.concurrency_per_server = 0.5;
  opt.max_utilization = 0.85;
  const QueueingPlanner planner(opt);
  const QueueingPlan plan = planner.plan(1900.0, core::LatencySlo{50.0});
  // Floor: c_eff >= ceil(1900 / 850) = 3 logical servers, which needs 6
  // physical ones. Pre-fix the un-truncated floor accepted 5 physical
  // (2.5 logical), truncating to c_eff = 2 and a real utilization of 0.95.
  EXPECT_EQ(plan.servers, 6u);
  EXPECT_EQ(planner.effective_servers(plan.servers), 3u);
  EXPECT_NEAR(plan.utilization, 1900.0 / 3000.0, 1e-12);
  EXPECT_LE(plan.predicted_p95_latency_ms, 50.0);
}

TEST(QueueingPlanner, PlanAndPredictShareEffectiveServers) {
  // The plan's predicted latency must be exactly what predict() reports for
  // the same operating point — one truncation, one answer.
  QueueingPlannerOptions opt = default_options();
  opt.service_time_ms = 2.0;
  opt.concurrency_per_server = 2.3;
  const QueueingPlanner planner(opt);
  const QueueingPlan plan = planner.plan(4321.0, core::LatencySlo{30.0});
  EXPECT_DOUBLE_EQ(plan.predicted_p95_latency_ms,
                   planner.predict_p95_latency_ms(4321.0, plan.servers));
}

TEST(QueueingPlanner, IntegerConcurrencyUnchangedByEffectiveServersFix) {
  // For integer concurrency truncation is exact, so the fixed floor must
  // agree with the old closed form: servers = ceil(ceil(lambda / (u*mu)) / c)
  // has the same value as the pre-fix ceil(lambda / (u*mu*c)).
  const QueueingPlanner planner(default_options());
  const QueueingPlan plan = planner.plan(10000.0, core::LatencySlo{20.0});
  EXPECT_EQ(planner.effective_servers(plan.servers), plan.servers * 16u);
  EXPECT_LE(plan.utilization, 0.85 + 1e-9);
}

TEST(QueueingPlanner, RejectsOutOfRangeUtilization) {
  QueueingPlannerOptions bad = default_options();
  bad.max_utilization = 0.0;
  EXPECT_THROW(QueueingPlanner{bad}, std::invalid_argument);
  bad.max_utilization = 1.5;
  EXPECT_THROW(QueueingPlanner{bad}, std::invalid_argument);
}

TEST(QueueingPlanner, PlanRejectsNonPositiveLoad) {
  const QueueingPlanner planner(default_options());
  EXPECT_THROW((void)planner.plan(0.0, core::LatencySlo{20.0}),
               std::invalid_argument);
}

TEST(QueueingPlanner, PredictRejectsZeroServers) {
  const QueueingPlanner planner(default_options());
  EXPECT_THROW((void)planner.predict_p95_latency_ms(100.0, 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The bake-off entrant

TEST(QueueingPlanner, PlansForTheRunningPeakAndNeverReleases) {
  const core::PoolResponseModel surface = test_surface();
  QueueingPlanner planner;
  EXPECT_EQ(planner.name(), "queueing");

  planner.start(test_context(&surface), 4);
  const std::size_t at_spike = planner.plan_window(make_window(0, 5000.0));
  EXPECT_GE(at_spike, 1u);
  // Demand collapses; the white-box plan stays sized for the peak.
  EXPECT_EQ(planner.plan_window(make_window(1, 100.0)), at_spike);
  EXPECT_EQ(planner.plan_window(make_window(2, 0.0)), at_spike);
}

TEST(QueueingPlanner, ZeroDemandKeepsTheCurrentServing) {
  const core::PoolResponseModel surface = test_surface();
  QueueingPlanner planner;
  planner.start(test_context(&surface), 4);
  core::PlannerWindow w = make_window(0, 0.0);
  w.serving = 6.0;
  EXPECT_EQ(planner.plan_window(w), 6u);
}

TEST(QueueingPlanner, AutoCalibrationMatchesAnExplicitServiceTime) {
  // start() reads the surface's warm floor (5 ms) as an exponential P95
  // -> service time 5 / 2.9957... ms; a planner constructed with that same
  // number by hand must produce identical plans.
  const core::PoolResponseModel surface = test_surface();
  QueueingPlanner auto_cal;
  QueueingPlannerOptions pinned_opt;
  pinned_opt.service_time_ms = 5.0 / kExpP95Factor;
  const QueueingPlanner pinned(pinned_opt);

  auto_cal.start(test_context(&surface), 4);
  EXPECT_DOUBLE_EQ(auto_cal.options().service_time_ms,
                   pinned_opt.service_time_ms);
  for (std::size_t i = 0; i < 4; ++i) {
    const double rps = 500.0 * static_cast<double>(i + 1);
    EXPECT_EQ(auto_cal.plan_window(make_window(i, rps)),
              pinned.plan(rps, core::LatencySlo{50.0}).servers)
        << rps;
  }
}

TEST(QueueingPlanner, StartClampsAWarmFloorAboveTheSlo) {
  // A 48 ms warm floor against the 50 ms SLO would believe a service P95 of
  // 48 ms; the belief is capped at a P95 of 0.9 x SLO = 45 ms so plan()
  // stays satisfiable.
  const core::PoolResponseModel surface = test_surface(48.0);
  QueueingPlanner planner;
  planner.start(test_context(&surface), 4);
  EXPECT_DOUBLE_EQ(planner.options().service_time_ms,
                   0.9 * 50.0 / kExpP95Factor);
  EXPECT_GE(planner.plan_window(make_window(0, 900.0)), 1u);
}

TEST(QueueingPlanner, StartRejectsANullModel) {
  QueueingPlanner planner;
  EXPECT_THROW(planner.start(test_context(nullptr), 4), std::invalid_argument);
}

}  // namespace
}  // namespace headroom::baseline
