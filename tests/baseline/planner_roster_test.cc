// Unit coverage for the bake-off roster: its frontier order, and the three
// planners written for the bake-off (prediction-augmented scaling,
// switching-cost right-sizing, throughput probing). The queueing and
// reactive entrants are covered in their own planners' suites. All tests
// run against the synthetic surface of planner_test_surface.h.
#include "baseline/planner_roster.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "baseline/prediction_scaling.h"
#include "baseline/right_sizing.h"
#include "baseline/throughput_probing.h"
#include "planner_test_surface.h"

namespace headroom::baseline {
namespace {

using planner_test::make_window;
using planner_test::test_context;
using planner_test::test_surface;

// ---------------------------------------------------------------------------
// PredictionScalingPlanner

TEST(PredictionScaling, RejectsOutOfRangeTrust) {
  for (double trust : {-0.1, 1.5}) {
    PredictionScalingOptions opt;
    opt.trust = trust;
    EXPECT_THROW(PredictionScalingPlanner{opt}, std::invalid_argument);
  }
}

TEST(PredictionScaling, ZeroTrustScalesUpFastAndReleasesLazily) {
  const core::PoolResponseModel surface = test_surface();
  PredictionScalingOptions opt;
  opt.trust = 0.0;
  opt.switch_cost_windows = 3;  // hold = (1 - 0) * 3 = 3 windows
  PredictionScalingPlanner planner(opt);
  EXPECT_EQ(planner.name(), "prediction_ml");

  planner.start(test_context(&surface), 4);
  // Spike: the need jumps to 7 and is served immediately.
  EXPECT_EQ(planner.plan_window(make_window(0, 1800.0)), 7u);
  // Demand back down (need 4): the ski-rental hold keeps capacity for
  // three consecutive lower-need windows, releasing on the fourth.
  EXPECT_EQ(planner.plan_window(make_window(1, 900.0)), 7u);
  EXPECT_EQ(planner.plan_window(make_window(2, 900.0)), 7u);
  EXPECT_EQ(planner.plan_window(make_window(3, 900.0)), 7u);
  EXPECT_EQ(planner.plan_window(make_window(4, 900.0)), 4u);
}

TEST(PredictionScaling, FullTrustPreProvisionsForTheForecastSpike) {
  const core::PoolResponseModel surface = test_surface();
  PredictionScalingOptions opt;
  opt.trust = 1.0;
  opt.lead_windows = 2;
  opt.forecaster.season_seconds = 480;  // 4 windows per season
  opt.forecaster.buckets = 4;
  PredictionScalingPlanner planner(opt);

  planner.start(test_context(&surface), 1);
  // Season one teaches the shape: a spike in bucket 2.
  (void)planner.plan_window(make_window(0, 100.0));
  (void)planner.plan_window(make_window(1, 100.0));
  (void)planner.plan_window(make_window(2, 2000.0));
  (void)planner.plan_window(make_window(3, 100.0));
  // Season two, bucket 0: demand is low (need 1) but the forecast two
  // windows ahead lands on the learned spike (2000 rps -> 7 servers), and
  // full trust pre-provisions for it.
  EXPECT_EQ(planner.plan_window(make_window(4, 100.0)), 7u);
  // Full trust also releases immediately once the forecast horizon clears
  // the spike: at bucket 2 the lead points at bucket 0 (100 rps).
  EXPECT_EQ(planner.plan_window(make_window(6, 2000.0)), 7u);
  EXPECT_EQ(planner.plan_window(make_window(7, 100.0)), 1u);
}

// ---------------------------------------------------------------------------
// RightSizingPlanner

TEST(RightSizing, HoldsCapacityForTheBreakEvenThenReleases) {
  const core::PoolResponseModel surface = test_surface();
  RightSizingOptions opt;
  opt.switching_cost_windows = 3;
  RightSizingPlanner planner(opt);
  EXPECT_EQ(planner.name(), "right_sizing");

  planner.start(test_context(&surface), 1);
  // One spike window (need 7), then sustained low demand (need 1): the
  // spike level stays provisioned for exactly beta = 3 further windows.
  EXPECT_EQ(planner.plan_window(make_window(0, 1800.0)), 7u);
  EXPECT_EQ(planner.plan_window(make_window(1, 100.0)), 7u);
  EXPECT_EQ(planner.plan_window(make_window(2, 100.0)), 7u);
  EXPECT_EQ(planner.plan_window(make_window(3, 100.0)), 7u);
  EXPECT_EQ(planner.plan_window(make_window(4, 100.0)), 1u);
}

TEST(RightSizing, ZeroSwitchingCostDegeneratesToFollowTheNeed) {
  const core::PoolResponseModel surface = test_surface();
  RightSizingOptions opt;
  opt.switching_cost_windows = 0;
  RightSizingPlanner planner(opt);

  planner.start(test_context(&surface), 1);
  EXPECT_EQ(planner.plan_window(make_window(0, 1800.0)), 7u);
  EXPECT_EQ(planner.plan_window(make_window(1, 900.0)), 4u);
  EXPECT_EQ(planner.plan_window(make_window(2, 100.0)), 1u);
}

TEST(RightSizing, InterveningDemandRefreshesTheHold) {
  const core::PoolResponseModel surface = test_surface();
  RightSizingOptions opt;
  opt.switching_cost_windows = 2;
  RightSizingPlanner planner(opt);

  planner.start(test_context(&surface), 1);
  EXPECT_EQ(planner.plan_window(make_window(0, 1800.0)), 7u);
  EXPECT_EQ(planner.plan_window(make_window(1, 100.0)), 7u);
  // A fresh (smaller) burst restarts the clock for its own level once the
  // spike ages out: 900 rps needs 4.
  EXPECT_EQ(planner.plan_window(make_window(2, 900.0)), 7u);
  EXPECT_EQ(planner.plan_window(make_window(3, 100.0)), 4u);
  EXPECT_EQ(planner.plan_window(make_window(4, 100.0)), 4u);
  EXPECT_EQ(planner.plan_window(make_window(5, 100.0)), 1u);
}

// ---------------------------------------------------------------------------
// ThroughputProbingPlanner

TEST(Probing, ValidatesOptions) {
  ThroughputProbingOptions opt;
  opt.settle_windows = 0;
  EXPECT_THROW(ThroughputProbingPlanner{opt}, std::invalid_argument);
  for (double fraction : {0.0, 1.0, -0.2}) {
    ThroughputProbingOptions bad;
    bad.probe_step_fraction = fraction;
    EXPECT_THROW(ThroughputProbingPlanner{bad}, std::invalid_argument);
  }
}

TEST(Probing, MeasuredViolationStepsUpImmediately) {
  const core::PoolResponseModel surface = test_surface();
  ThroughputProbingPlanner planner;
  EXPECT_EQ(planner.name(), "probing");

  planner.start(test_context(&surface, /*pool_size=*/20), 10);
  // 60 ms measured against the 50 ms SLO: step up by ceil(10 * 0.10) = 1
  // without waiting out the settle period.
  EXPECT_EQ(planner.plan_window(make_window(0, 900.0, /*latency=*/60.0)),
            11u);
  // Capped at the pool.
  planner.start(test_context(&surface, /*pool_size=*/10), 10);
  EXPECT_EQ(planner.plan_window(make_window(0, 900.0, 60.0)), 10u);
}

TEST(Probing, WalksDownWhileComfortable) {
  const core::PoolResponseModel surface = test_surface();
  ThroughputProbingOptions opt;
  opt.settle_windows = 2;
  ThroughputProbingPlanner planner(opt);

  planner.start(test_context(&surface), 10);
  // First settle period at 10 is comfortable (10 ms << 47 ms comfort
  // line): probe down one step.
  EXPECT_EQ(planner.plan_window(make_window(0, 900.0, 10.0)), 10u);
  EXPECT_EQ(planner.plan_window(make_window(1, 900.0, 10.0)), 9u);
  // The probe settles comfortably: adopted, and the walk continues.
  EXPECT_EQ(planner.plan_window(make_window(2, 900.0, 10.0)), 9u);
  EXPECT_EQ(planner.plan_window(make_window(3, 900.0, 10.0)), 9u);
  EXPECT_EQ(planner.plan_window(make_window(4, 900.0, 10.0)), 9u);
  EXPECT_EQ(planner.plan_window(make_window(5, 900.0, 10.0)), 8u);
}

TEST(Probing, FailedProbeRevertsAndBacksOff) {
  const core::PoolResponseModel surface = test_surface();
  ThroughputProbingOptions opt;
  opt.settle_windows = 2;
  opt.backoff_periods = 2;
  ThroughputProbingPlanner planner(opt);

  planner.start(test_context(&surface), 10);
  // Comfortable hold -> probe down to 9.
  EXPECT_EQ(planner.plan_window(make_window(0, 900.0, 10.0)), 10u);
  EXPECT_EQ(planner.plan_window(make_window(1, 900.0, 10.0)), 9u);
  // At 9 the latency creeps to 48 ms — inside the SLO but past the 47 ms
  // comfort line: the probe fails, capacity reverts, probing backs off.
  EXPECT_EQ(planner.plan_window(make_window(2, 900.0, 48.0)), 9u);
  EXPECT_EQ(planner.plan_window(make_window(3, 900.0, 48.0)), 10u);
  // Two full settle periods of comfort burn the backoff without probing.
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_EQ(planner.plan_window(make_window(i, 900.0, 10.0)), 10u) << i;
  }
  // Backoff spent: the next judged period probes again.
  EXPECT_EQ(planner.plan_window(make_window(8, 900.0, 10.0)), 10u);
  EXPECT_EQ(planner.plan_window(make_window(9, 900.0, 10.0)), 9u);
}

TEST(Probing, ProactivelyStepsUpNearTheSlo) {
  const core::PoolResponseModel surface = test_surface();
  ThroughputProbingOptions opt;
  opt.settle_windows = 2;
  ThroughputProbingPlanner planner(opt);

  planner.start(test_context(&surface, /*pool_size=*/20), 10);
  // 48 ms: no violation yet, but within the 3 ms headroom of the SLO —
  // after the settle period the controller steps up without waiting to
  // get burned.
  EXPECT_EQ(planner.plan_window(make_window(0, 900.0, 48.0)), 10u);
  EXPECT_EQ(planner.plan_window(make_window(1, 900.0, 48.0)), 11u);
}

TEST(DefaultRoster, FixedFrontierOrder) {
  const auto roster = default_roster();
  ASSERT_EQ(roster.size(), 5u);
  EXPECT_EQ(roster[0]->name(), "queueing");
  EXPECT_EQ(roster[1]->name(), "reactive");
  EXPECT_EQ(roster[2]->name(), "prediction_ml");
  EXPECT_EQ(roster[3]->name(), "right_sizing");
  EXPECT_EQ(roster[4]->name(), "probing");
}

}  // namespace
}  // namespace headroom::baseline
