#include "core/headroom_optimizer.h"

#include <gtest/gtest.h>

namespace headroom::core {
namespace {

// Pool-B-shaped fitted model.
PoolResponseModel pool_b_model() {
  telemetry::AlignedPair cpu;
  telemetry::AlignedPair latency;
  for (int i = 0; i < 200; ++i) {
    const double rps = 150.0 + 500.0 * static_cast<double>(i) / 199.0;
    cpu.x.push_back(rps);
    cpu.y.push_back(0.028 * rps + 1.37);
    latency.x.push_back(rps);
    latency.y.push_back(4.028e-5 * rps * rps - 0.031 * rps + 36.68);
  }
  return PoolResponseModel::fit(cpu, latency);
}

HeadroomPolicy relaxed_policy(double slo_ms) {
  HeadroomPolicy policy;
  policy.qos.latency.p95_ms = slo_ms;
  policy.dr_headroom_fraction = 0.125;
  policy.forecast_margin_fraction = 0.05;
  policy.maintenance_unavailable_fraction = 0.02;
  policy.max_extrapolation = 2.0;
  return policy;
}

TEST(HeadroomOptimizer, RejectsBadInputs) {
  EXPECT_THROW(HeadroomOptimizer(HeadroomPolicy{.qos = {{0.0}}}),
               std::invalid_argument);
  const HeadroomOptimizer opt(relaxed_policy(33.5));
  const PoolResponseModel model = pool_b_model();
  EXPECT_THROW((void)opt.plan(model, 377.0, 0), std::invalid_argument);
  EXPECT_THROW((void)opt.plan(model, 0.0, 100), std::invalid_argument);
}

TEST(HeadroomOptimizer, StressMultiplierComposes) {
  const HeadroomOptimizer opt(relaxed_policy(33.5));
  // (1+0.125) * (1+0.05) / (1-0.02) ≈ 1.205
  EXPECT_NEAR(opt.stress_multiplier(), 1.205, 0.002);
}

TEST(HeadroomOptimizer, PoolBPlanSavesServersWithinSlo) {
  const HeadroomOptimizer opt(relaxed_policy(33.5));
  const HeadroomPlan plan = opt.plan(pool_b_model(), 377.0, 100);
  EXPECT_LT(plan.recommended_servers, 100u);
  EXPECT_GT(plan.efficiency_savings(), 0.10);
  // Predicted latency at the new operating point within SLO:
  EXPECT_LE(plan.predicted_latency_after_ms, 33.5);
  // And even under the stressed (DR + forecast + maintenance) load:
  EXPECT_LE(plan.predicted_latency_stressed_ms, 33.5 + 1e-9);
}

TEST(HeadroomOptimizer, TighterSloSavesLess) {
  const PoolResponseModel model = pool_b_model();
  const HeadroomPlan generous =
      HeadroomOptimizer(relaxed_policy(33.5)).plan(model, 377.0, 100);
  const HeadroomPlan tight =
      HeadroomOptimizer(relaxed_policy(31.2)).plan(model, 377.0, 100);
  EXPECT_LE(tight.efficiency_savings(), generous.efficiency_savings());
}

TEST(HeadroomOptimizer, ImpossibleSloKeepsEverything) {
  const HeadroomPlan plan =
      HeadroomOptimizer(relaxed_policy(25.0)).plan(pool_b_model(), 377.0, 100);
  // The anchor itself violates a 25 ms SLO (latency ≈ 30.7): no cut.
  EXPECT_EQ(plan.recommended_servers, 100u);
  EXPECT_DOUBLE_EQ(plan.efficiency_savings(), 0.0);
}

TEST(HeadroomOptimizer, MoreDrHeadroomMeansMoreServers) {
  const PoolResponseModel model = pool_b_model();
  HeadroomPolicy small_dr = relaxed_policy(33.5);
  small_dr.dr_headroom_fraction = 0.0;
  HeadroomPolicy big_dr = relaxed_policy(33.5);
  big_dr.dr_headroom_fraction = 0.30;
  const HeadroomPlan small_plan =
      HeadroomOptimizer(small_dr).plan(model, 377.0, 100);
  const HeadroomPlan big_plan =
      HeadroomOptimizer(big_dr).plan(model, 377.0, 100);
  EXPECT_LT(small_plan.recommended_servers, big_plan.recommended_servers);
}

TEST(HeadroomOptimizer, LatencyImpactIsDeltaAtAnchorLoad) {
  const HeadroomPlan plan =
      HeadroomOptimizer(relaxed_policy(33.5)).plan(pool_b_model(), 377.0, 100);
  EXPECT_NEAR(plan.latency_impact_ms(),
              plan.predicted_latency_after_ms - plan.predicted_latency_before_ms,
              1e-12);
  // Pool B's published impact is ~2 ms.
  EXPECT_GE(plan.latency_impact_ms(), -1.0);
  EXPECT_LE(plan.latency_impact_ms(), 4.0);
}

TEST(HeadroomOptimizer, RecommendedNeverExceedsCurrent) {
  const PoolResponseModel model = pool_b_model();
  for (std::size_t servers : {10u, 50u, 250u}) {
    const HeadroomPlan plan =
        HeadroomOptimizer(relaxed_policy(40.0)).plan(model, 377.0, servers);
    EXPECT_LE(plan.recommended_servers, servers);
    EXPECT_GE(plan.recommended_servers, 1u);
  }
}

TEST(HeadroomOptimizer, StressedLoadReflectsPolicy) {
  const HeadroomOptimizer opt(relaxed_policy(33.5));
  const HeadroomPlan plan = opt.plan(pool_b_model(), 377.0, 100);
  const double total = 377.0 * 100.0;
  const double after =
      total / static_cast<double>(plan.recommended_servers);
  EXPECT_NEAR(plan.stressed_rps_per_server, after * opt.stress_multiplier(),
              1e-9);
}

}  // namespace
}  // namespace headroom::core
