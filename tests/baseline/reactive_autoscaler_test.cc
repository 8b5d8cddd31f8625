#include "baseline/reactive_autoscaler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "planner_test_surface.h"

namespace headroom::baseline {
namespace {

using planner_test::make_window;
using planner_test::test_context;
using planner_test::test_surface;
using telemetry::SimTime;
using telemetry::TimeSeries;

// Diurnal offered load at 120 s cadence over `days`.
TimeSeries diurnal_trace(double peak, double trough, int days) {
  TimeSeries trace;
  for (SimTime t = 0; t < days * 86400; t += 120) {
    const double hour = std::fmod(static_cast<double>(t) / 3600.0, 24.0);
    const double shape =
        0.5 * (1.0 + std::cos(2.0 * 3.14159265358979 * (hour - 20.0) / 24.0));
    trace.append(t, trough + (peak - trough) * shape);
  }
  return trace;
}

AutoscalerOptions default_options() {
  AutoscalerOptions opt;
  opt.target_cpu_pct = 50.0;
  opt.scale_out_threshold = 60.0;
  opt.scale_in_threshold = 35.0;
  opt.provision_lag_s = 1800;
  opt.drain_lag_s = 300;
  opt.control_interval_s = 120;
  opt.min_servers = 4;
  opt.cpu_per_rps = 0.028;
  opt.cpu_base = 1.4;
  opt.cpu_slo_pct = 75.0;
  return opt;
}

TEST(ReactiveAutoscaler, RejectsBadOptions) {
  AutoscalerOptions bad = default_options();
  bad.min_servers = 0;
  EXPECT_THROW(ReactiveAutoscaler{bad}, std::invalid_argument);
  bad = default_options();
  bad.control_interval_s = 0;
  EXPECT_THROW(ReactiveAutoscaler{bad}, std::invalid_argument);
  bad = default_options();
  bad.cpu_per_rps = 0.0;
  EXPECT_THROW(ReactiveAutoscaler{bad}, std::invalid_argument);
  bad = default_options();
  bad.drain_lag_s = -120;
  EXPECT_THROW(ReactiveAutoscaler{bad}, std::invalid_argument);
}

// Regression: target_cpu_pct <= cpu_base used to slip through construction
// and flip the sizing division negative; the damping clamp then silently
// turned every scale-out decision into a scale-in toward min_servers.
TEST(ReactiveAutoscaler, RejectsTargetCpuAtOrBelowCpuBase) {
  AutoscalerOptions bad = default_options();
  bad.target_cpu_pct = 50.0;
  bad.cpu_base = 55.0;  // pre-fix: silently drains the pool under load
  EXPECT_THROW(
      {
        try {
          ReactiveAutoscaler scaler(bad);
        } catch (const std::invalid_argument& e) {
          EXPECT_STREQ(e.what(),
                       "ReactiveAutoscaler: target_cpu_pct must exceed "
                       "cpu_base");
          throw;
        }
      },
      std::invalid_argument);
  bad.cpu_base = 50.0;  // equality is just as degenerate (division by zero)
  EXPECT_THROW(ReactiveAutoscaler{bad}, std::invalid_argument);
}

// Regression: max_step_fraction >= 1 used to be accepted; the lower damping
// bound target*(1 - f) then goes non-positive, so "damping" could swing the
// pool to (almost) zero in one decision.
TEST(ReactiveAutoscaler, RejectsMaxStepFractionOutsideUnitInterval) {
  for (const double f : {1.0, 3.0, 0.0, -0.5}) {
    AutoscalerOptions bad = default_options();
    bad.max_step_fraction = f;
    EXPECT_THROW(
        {
          try {
            ReactiveAutoscaler scaler(bad);
          } catch (const std::invalid_argument& e) {
            EXPECT_STREQ(e.what(),
                         "ReactiveAutoscaler: max_step_fraction must be in "
                         "(0, 1)");
            throw;
          }
        },
        std::invalid_argument)
        << "max_step_fraction=" << f;
  }
}

// Regression: mis-ordered thresholds (scale_in >= scale_out) used to be
// accepted; every CPU reading then lands outside the dead band and the
// controller thrashes between out and in each interval.
TEST(ReactiveAutoscaler, RejectsMisorderedThresholds) {
  AutoscalerOptions bad = default_options();
  bad.scale_out_threshold = 60.0;
  bad.scale_in_threshold = 70.0;
  EXPECT_THROW(
      {
        try {
          ReactiveAutoscaler scaler(bad);
        } catch (const std::invalid_argument& e) {
          EXPECT_STREQ(e.what(),
                       "ReactiveAutoscaler: scale_in_threshold must be below "
                       "scale_out_threshold");
          throw;
        }
      },
      std::invalid_argument);
  bad.scale_in_threshold = 60.0;  // equality also leaves no dead band
  EXPECT_THROW(ReactiveAutoscaler{bad}, std::invalid_argument);
}

TEST(ReactiveAutoscaler, EmptyTraceEmptyRun) {
  const ReactiveAutoscaler scaler(default_options());
  const AutoscalerRun run = scaler.replay({}, 10);
  EXPECT_TRUE(run.samples.empty());
  EXPECT_EQ(run.violation_fraction(), 0.0);
}

TEST(ReactiveAutoscaler, TracksDiurnalLoad) {
  const ReactiveAutoscaler scaler(default_options());
  const TimeSeries trace = diurnal_trace(40000.0, 15000.0, 3);
  const AutoscalerRun run = scaler.replay(trace, 30);
  // Capacity must breathe: peak serving well above the minimum serving.
  std::size_t min_serving = run.samples.front().serving;
  for (const auto& s : run.samples) {
    min_serving = std::min(min_serving, s.serving);
  }
  EXPECT_GT(run.peak_serving, min_serving + 5);
  // Mean CPU near target once warmed up.
  double cpu_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = run.samples.size() / 2; i < run.samples.size(); ++i) {
    cpu_sum += run.samples[i].cpu_pct;
    ++n;
  }
  EXPECT_NEAR(cpu_sum / static_cast<double>(n), 50.0, 12.0);
}

TEST(ReactiveAutoscaler, UsesFewerServerHoursThanStaticPeak) {
  const AutoscalerOptions opt = default_options();
  const ReactiveAutoscaler scaler(opt);
  const TimeSeries trace = diurnal_trace(40000.0, 15000.0, 3);
  const AutoscalerRun run = scaler.replay(trace, 30);
  // Static sizing for peak at target CPU:
  const double static_servers =
      opt.cpu_per_rps * 40000.0 / (50.0 - opt.cpu_base);
  EXPECT_LT(run.mean_serving(), static_servers);
}

TEST(ReactiveAutoscaler, ProvisioningLagCausesViolationsOnSpike) {
  // The paper's argument: a sudden failover spike outruns reactive scaling
  // because new capacity takes ~30 min to serve.
  AutoscalerOptions opt = default_options();
  opt.provision_lag_s = 1800;
  const ReactiveAutoscaler scaler(opt);
  TimeSeries trace;
  for (SimTime t = 0; t < 4 * 3600; t += 120) {
    trace.append(t, t >= 3600 && t < 3600 + 7200 ? 35000.0 : 12000.0);
  }
  const AutoscalerRun run = scaler.replay(trace, 10);
  EXPECT_GT(run.violation_seconds, 600.0);
}

TEST(ReactiveAutoscaler, ZeroLagScalesThroughSpikeCleanly) {
  AutoscalerOptions opt = default_options();
  opt.provision_lag_s = 0;
  opt.drain_lag_s = 0;
  opt.max_step_fraction = 0.95;  // near-unconstrained jumps, still valid
  const ReactiveAutoscaler scaler(opt);
  TimeSeries trace;
  for (SimTime t = 0; t < 4 * 3600; t += 120) {
    trace.append(t, t >= 3600 && t < 3600 + 7200 ? 35000.0 : 12000.0);
  }
  const AutoscalerRun run = scaler.replay(trace, 10);
  // With instantaneous provisioning the spike is absorbed within a couple
  // of control periods.
  EXPECT_LT(run.violation_seconds, 600.0);
}

TEST(ReactiveAutoscaler, RespectsMinServers) {
  const ReactiveAutoscaler scaler(default_options());
  TimeSeries trace;
  for (SimTime t = 0; t < 86400; t += 120) trace.append(t, 10.0);  // ~no load
  const AutoscalerRun run = scaler.replay(trace, 10);
  for (const auto& s : run.samples) EXPECT_GE(s.serving, 4u);
}

TEST(ReactiveAutoscaler, StepDampingLimitsChangeRate) {
  AutoscalerOptions opt = default_options();
  opt.max_step_fraction = 0.10;
  opt.provision_lag_s = 0;
  const ReactiveAutoscaler scaler(opt);
  TimeSeries trace;
  for (SimTime t = 0; t < 7200; t += 120) trace.append(t, 50000.0);
  const AutoscalerRun run = scaler.replay(trace, 10);
  for (std::size_t i = 1; i < run.samples.size(); ++i) {
    const double prev = static_cast<double>(run.samples[i - 1].target);
    const double cur = static_cast<double>(run.samples[i].target);
    EXPECT_LE(cur, std::ceil(prev * 1.10) + 1.0) << "i=" << i;
  }
}

TEST(ReactiveAutoscaler, DecideHoldsInsideDeadBand) {
  const ReactiveAutoscaler scaler(default_options());
  // CPU inside [scale_in, scale_out]: the committed target is untouched.
  EXPECT_EQ(scaler.decide(30000.0, 45.0, 17), 17u);
  EXPECT_EQ(scaler.decide(30000.0, 35.0, 17), 17u);
  EXPECT_EQ(scaler.decide(30000.0, 60.0, 17), 17u);
  // Above the band it grows, below it shrinks.
  EXPECT_GT(scaler.decide(60000.0, 80.0, 17), 17u);
  EXPECT_LT(scaler.decide(5000.0, 10.0, 17), 17u);
}

TEST(ReactiveAutoscaler, ServerSecondsIntegratesCapacity) {
  const ReactiveAutoscaler scaler(default_options());
  TimeSeries trace;
  for (SimTime t = 0; t < 1200; t += 120) trace.append(t, 7000.0);
  const AutoscalerRun run = scaler.replay(trace, 10);
  EXPECT_NEAR(run.total_seconds, 1200.0, 1e-9);
  EXPECT_GE(run.server_seconds, 10.0 * 1200.0 * 0.5);
}

// ---------------------------------------------------------------------------
// The bake-off entrant: CPU model and thresholds from the response surface

TEST(ReactiveAutoscaler, ScalesOutUnderSustainedHighCpuAfterTheLag) {
  const core::PoolResponseModel surface = test_surface();
  ReactiveAutoscaler planner;
  EXPECT_EQ(planner.name(), "reactive");

  core::PlannerContext ctx = test_context(&surface, /*pool_size=*/64);
  planner.start(ctx, 8);
  // Hot windows: measured CPU far above the surface-derived scale-out
  // threshold. The decision is immediate (control interval == window) but
  // provisioned capacity arrives only after the provisioning lag
  // (1800 s = 15 windows), so early windows still serve 8.
  std::size_t serving = 8;
  std::vector<std::size_t> path;
  for (std::size_t i = 0; i < 20; ++i) {
    serving = planner.plan_window(make_window(i, 6000.0, 20.0, 90.0));
    path.push_back(serving);
  }
  EXPECT_EQ(path.front(), 8u);
  EXPECT_GT(path.back(), 8u);
  // Nothing lands before the lag has elapsed.
  for (std::size_t i = 0; i + 1 < 15; ++i) {
    EXPECT_EQ(path[i], 8u) << i;
  }
}

TEST(ReactiveAutoscaler, IdleCpuScalesInWithoutBreachingTheFloor) {
  const core::PoolResponseModel surface = test_surface();
  ReactiveAutoscaler planner;
  core::PlannerContext ctx = test_context(&surface, /*pool_size=*/64);
  ctx.min_servers = 2;
  planner.start(ctx, 16);
  std::size_t serving = 16;
  for (std::size_t i = 0; i < 60; ++i) {
    serving = planner.plan_window(make_window(i, 50.0, 5.5, 2.5));
  }
  EXPECT_LT(serving, 16u);
  EXPECT_GE(serving, 2u);
}

// Regression: pending capacity changes used to be applied in the order they
// came due, so a short drain decided after a long scale-out landed first and
// the scale-out then overwrote it — the pool ended up serving a target that
// had already been replaced. Changes now land in decision order.
TEST(ReactiveAutoscaler, ChangesLandInTheOrderTheyWereDecided) {
  const core::PoolResponseModel surface = test_surface();
  ReactiveAutoscaler planner;
  planner.start(test_context(&surface, /*pool_size=*/64), 16);
  // Hot window: 16 -> 20 (damped +25%), landing after the 15-window
  // provisioning lag.
  EXPECT_EQ(planner.plan_window(make_window(0, 6000.0, 20.0, 90.0)), 16u);
  // Idle window: 20 -> 15 (damped -25%); its 3-window drain lag elapses
  // long before the scale-out lands.
  EXPECT_EQ(planner.plan_window(make_window(1, 50.0, 5.5, 2.5)), 16u);
  // CPU inside the [scale_in, scale_out] band from here on: no new
  // decisions, so the pool must settle on the last committed target.
  std::vector<std::size_t> path;
  for (std::size_t i = 2; i < 30; ++i) {
    path.push_back(planner.plan_window(make_window(i, 1000.0, 20.0, 18.0)));
  }
  // Both changes land together once the earlier one is due (window 15).
  for (std::size_t i = 2; i < 15; ++i) EXPECT_EQ(path[i - 2], 16u) << i;
  for (std::size_t i = 15; i < 30; ++i) EXPECT_EQ(path[i - 2], 15u) << i;
}

TEST(ReactiveAutoscaler, StartDerivesThresholdsFromTheSurface) {
  // Closed form on the test surface: latency 5 + 0.0005 r^2 reaches the
  // 50 ms SLO at r = 300 rps per server, where CPU = 0.08 * 300 + 2 = 26 %.
  // The scan walks (95 - 2) / 0.08 / 512 rps per step, 0.1816 % CPU, and
  // reports the last step at or under the SLO.
  const core::PoolResponseModel surface = test_surface();
  ReactiveAutoscaler planner;
  planner.start(test_context(&surface), 4);
  const AutoscalerOptions& opt = planner.options();
  EXPECT_DOUBLE_EQ(opt.cpu_per_rps, 0.08);
  EXPECT_DOUBLE_EQ(opt.cpu_base, 2.0);
  EXPECT_LE(opt.cpu_slo_pct, 26.0);
  EXPECT_GT(opt.cpu_slo_pct, 26.0 - 0.19);
  const double span = opt.cpu_slo_pct - opt.cpu_base;
  EXPECT_DOUBLE_EQ(opt.target_cpu_pct, 2.0 + 0.80 * span);
  EXPECT_DOUBLE_EQ(opt.scale_out_threshold, 2.0 + 0.90 * span);
  EXPECT_DOUBLE_EQ(opt.scale_in_threshold, 2.0 + 0.55 * span);
  EXPECT_EQ(opt.min_servers, 1u);
  EXPECT_EQ(opt.max_servers, 32u);
}

TEST(ReactiveAutoscaler, StartRejectsANullModel) {
  ReactiveAutoscaler planner;
  EXPECT_THROW(planner.start(test_context(nullptr), 4), std::invalid_argument);
}

}  // namespace
}  // namespace headroom::baseline
