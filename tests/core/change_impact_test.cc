#include "core/change_impact.h"

#include <gtest/gtest.h>

namespace headroom::core {
namespace {

// Pool-B-shaped production model.
PoolResponseModel production_model() {
  telemetry::AlignedPair cpu;
  telemetry::AlignedPair latency;
  for (int i = 0; i < 300; ++i) {
    const double rps = 150.0 + 550.0 * static_cast<double>(i) / 299.0;
    cpu.x.push_back(rps);
    cpu.y.push_back(0.028 * rps + 1.37);
    latency.x.push_back(rps);
    latency.y.push_back(4.028e-5 * rps * rps - 0.031 * rps + 36.68);
  }
  return PoolResponseModel::fit(cpu, latency);
}

// Builds a synthetic gate result with the given flat latency delta and CPU
// delta at every step.
GateResult gate_with(double latency_delta_ms, double cpu_delta_pct,
                     double load_slope_ms_per_rps = 0.0) {
  GateResult gate;
  std::vector<double> xs;
  std::vector<double> ys;
  for (double rps : {100.0, 200.0, 300.0, 400.0, 500.0}) {
    LoadStepComparison step;
    step.rps_per_server = rps;
    step.baseline_latency_p95_ms = 30.0;
    step.candidate_latency_p95_ms =
        30.0 + latency_delta_ms + load_slope_ms_per_rps * rps;
    step.baseline_mean_cpu_pct = 10.0;
    step.candidate_mean_cpu_pct = 10.0 + cpu_delta_pct;
    gate.steps.push_back(step);
    xs.push_back(rps);
    ys.push_back(step.candidate_latency_p95_ms - step.baseline_latency_p95_ms);
  }
  gate.delta_curve = stats::fit_quadratic(xs, ys);
  gate.pass = latency_delta_ms <= 0.0;
  return gate;
}

HeadroomPolicy policy_32_8() {
  HeadroomPolicy policy;
  policy.qos.latency.p95_ms = 32.8;
  return policy;
}

TEST(ChangeImpact, NeutralChangeKeepsSizing) {
  const ChangeImpactPlanner planner(policy_32_8());
  const PoolResponseModel model = production_model();
  const ChangeImpactPlan plan =
      planner.plan(model, gate_with(0.0, 0.0), 377.0, 100);
  EXPECT_EQ(plan.servers_after, plan.servers_before);
  EXPECT_FALSE(plan.slo_unreachable);
  EXPECT_NEAR(plan.cpu_delta_pct, 0.0, 1e-9);
}

TEST(ChangeImpact, RegressionNeedsMoreServers) {
  const ChangeImpactPlanner planner(policy_32_8());
  const PoolResponseModel model = production_model();
  // +1.5 ms flat latency: eats most of the 32.8 - 30.7 SLO budget.
  const ChangeImpactPlan plan =
      planner.plan(model, gate_with(1.5, 3.0), 377.0, 100);
  EXPECT_GT(plan.servers_after, plan.servers_before);
  EXPECT_NEAR(plan.cpu_delta_pct, 3.0, 0.1);
  EXPECT_GT(plan.additional_servers_fraction(), 0.0);
}

TEST(ChangeImpact, ImprovementNeedsFewerServers) {
  const ChangeImpactPlanner planner(policy_32_8());
  const PoolResponseModel model = production_model();
  const ChangeImpactPlan plan =
      planner.plan(model, gate_with(-1.5, -2.0), 377.0, 100);
  EXPECT_LT(plan.servers_after, plan.servers_before);
  EXPECT_LT(plan.additional_servers_fraction(), 0.0);
}

TEST(ChangeImpact, LoadDependentRegressionShrinksFeasibleLoad) {
  const ChangeImpactPlanner planner(policy_32_8());
  const PoolResponseModel model = production_model();
  // Delta grows 0.01 ms per RPS: small at 100 RPS, ~4 ms at 400.
  const ChangeImpactPlan flat =
      planner.plan(model, gate_with(0.5, 0.0), 377.0, 100);
  const ChangeImpactPlan sloped =
      planner.plan(model, gate_with(0.5, 0.0, 0.01), 377.0, 100);
  EXPECT_GT(sloped.servers_after, flat.servers_after);
}

TEST(ChangeImpact, HopelessChangeFlaggedUnreachable) {
  const ChangeImpactPlanner planner(policy_32_8());
  const PoolResponseModel model = production_model();
  // +30 ms everywhere: no pool size can meet a 32.8 ms SLO.
  const ChangeImpactPlan plan =
      planner.plan(model, gate_with(30.0, 0.0), 377.0, 100);
  EXPECT_TRUE(plan.slo_unreachable);
  EXPECT_EQ(plan.servers_after, 100u);
}

TEST(ChangeImpact, PredictedLatencyComposesCurves) {
  const PoolResponseModel model = production_model();
  const GateResult gate = gate_with(2.0, 0.0);
  const ShiftedResponseModel shifted(model, gate);
  EXPECT_NEAR(shifted.predict_latency_ms(377.0),
              model.predict_latency_ms(377.0) + 2.0, 0.05);
}

TEST(ChangeImpact, RejectsBadInputs) {
  EXPECT_THROW(ChangeImpactPlanner(HeadroomPolicy{.qos = {{0.0}}}),
               std::invalid_argument);
  const ChangeImpactPlanner planner(policy_32_8());
  const PoolResponseModel model = production_model();
  EXPECT_THROW((void)planner.plan(model, gate_with(0, 0), 377.0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)planner.plan(model, gate_with(0, 0), 0.0, 10),
               std::invalid_argument);
}

}  // namespace
}  // namespace headroom::core
