#include "scenario/scenario_runner.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/bakeoff.h"
#include "scenario/planning.h"
#include "scenario/scenario_spec.h"
#include "scenario/serve.h"
#include "sim/microservice.h"
#include "sim/topology.h"

namespace headroom::scenario {
namespace {

ScenarioSpec measure_only(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.days = 1;
  spec.steps = step_bit(PipelineStep::kMeasure);
  // Built via std::string rather than a char* assignment: the latter trips
  // GCC 12's -Wrestrict false positive (PR 105329) when inlined here.
  spec.service = std::string("B");
  spec.servers = 8;
  return spec;
}

TEST(ScenarioRunnerBuild, SinglePoolAppliesKnobs) {
  const sim::MicroserviceCatalog catalog;
  ScenarioSpec spec = measure_only("knobs");
  spec.window_seconds = 60;
  spec.threads = 3;
  const sim::FleetConfig config = ScenarioRunner::build_fleet(spec, catalog);
  ASSERT_EQ(config.datacenters.size(), 1u);
  ASSERT_EQ(config.datacenters[0].pools.size(), 1u);
  EXPECT_EQ(config.datacenters[0].pools[0].servers, 8u);
  EXPECT_EQ(config.window_seconds, 60);
  EXPECT_EQ(config.threads, 3u);
  EXPECT_EQ(config.seed, 5u);
}

TEST(ScenarioRunnerBuild, TrafficEventInstallsIntoSchedule) {
  const sim::MicroserviceCatalog catalog;
  ScenarioSpec spec = measure_only("traffic");
  ScenarioEvent e;
  e.kind = ScenarioEventKind::kTrafficMultiplier;
  e.start_hour = 2.0;
  e.duration_hours = 1.5;
  e.multiplier = 4.0;
  spec.events.push_back(e);
  const sim::FleetConfig config = ScenarioRunner::build_fleet(spec, catalog);
  EXPECT_DOUBLE_EQ(config.events.traffic_multiplier(2 * 3600, 0), 4.0);
  EXPECT_DOUBLE_EQ(config.events.traffic_multiplier(3 * 3600 + 1800, 0), 1.0);
}

TEST(ScenarioRunnerBuild, MaintenanceWaveBecomesPoolIncidents) {
  const sim::MicroserviceCatalog catalog;
  ScenarioSpec spec = measure_only("wave");
  spec.fleet = FleetKind::kMultiDc;
  spec.datacenters = 3;
  ScenarioEvent e;
  e.kind = ScenarioEventKind::kMaintenanceWave;
  e.datacenter = 1;
  e.start_hour = 10.0;
  e.duration_hours = 2.0;
  e.offline_fraction = 0.5;
  spec.events.push_back(e);
  const sim::FleetConfig config = ScenarioRunner::build_fleet(spec, catalog);
  EXPECT_TRUE(config.datacenters[0].pools[0].incidents.empty());
  ASSERT_EQ(config.datacenters[1].pools[0].incidents.size(), 1u);
  EXPECT_TRUE(config.datacenters[2].pools[0].incidents.empty());
  EXPECT_DOUBLE_EQ(
      config.datacenters[1].pools[0].incidents[0].offline_fraction, 0.5);
}

TEST(ScenarioRunnerBuild, MaintenanceWaveCrossingMidnightIsSplit) {
  // A wave whose local window runs past 24:00 must become one incident per
  // touched local day (MaintenanceSchedule never wraps a window), with the
  // pieces seamless and the total duration preserved.
  const sim::MicroserviceCatalog catalog;
  ScenarioSpec spec = measure_only("midnight");
  ScenarioEvent e;
  e.kind = ScenarioEventKind::kMaintenanceWave;
  e.start_hour = 22.0;
  e.duration_hours = 6.0;  // local 22:00 -> 04:00 next day
  e.offline_fraction = 0.4;
  spec.events.push_back(e);
  const sim::FleetConfig config = ScenarioRunner::build_fleet(spec, catalog);
  const auto& incidents = config.datacenters[0].pools[0].incidents;
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_EQ(incidents[0].day, 0);
  EXPECT_DOUBLE_EQ(incidents[0].start_hour, 22.0);
  EXPECT_DOUBLE_EQ(incidents[0].duration_hours, 2.0);
  EXPECT_EQ(incidents[1].day, 1);
  EXPECT_DOUBLE_EQ(incidents[1].start_hour, 0.0);
  EXPECT_DOUBLE_EQ(incidents[1].duration_hours, 4.0);
  EXPECT_DOUBLE_EQ(incidents[1].offline_fraction, 0.4);
}

TEST(ScenarioRunnerBuild, OverridesApply) {
  const sim::MicroserviceCatalog catalog;
  ScenarioSpec spec = measure_only("overrides");
  spec.fleet = FleetKind::kMultiDc;
  spec.datacenters = 2;
  spec.datacenter_overrides.push_back(
      {.datacenter = 1, .demand_weight = 2.5, .timezone_offset_hours = {}});
  spec.pool_overrides.push_back({.datacenter = 0,
                                 .pool = 0,
                                 .servers = 12,
                                 .demand_multiplier = 1.5,
                                 .burst_multiplier = {},
                                 .burst_start_hour = {},
                                 .burst_hours = {}});
  const sim::FleetConfig config = ScenarioRunner::build_fleet(spec, catalog);
  EXPECT_DOUBLE_EQ(config.datacenters[1].demand_weight, 2.5);
  EXPECT_EQ(config.datacenters[0].pools[0].servers, 12u);
  EXPECT_DOUBLE_EQ(config.datacenters[0].pools[0].demand_multiplier, 1.5);
}

TEST(ScenarioRunnerBuild, RejectsUnknownService) {
  const sim::MicroserviceCatalog catalog;
  ScenarioSpec spec = measure_only("nope");
  spec.service = std::string("Z");
  EXPECT_THROW((void)ScenarioRunner::build_fleet(spec, catalog),
               std::invalid_argument);
}

TEST(ScenarioRunnerBuild, RejectsInvalidSpec) {
  const sim::MicroserviceCatalog catalog;
  ScenarioSpec spec;  // name empty -> validate() fails
  EXPECT_THROW((void)ScenarioRunner::build_fleet(spec, catalog),
               std::invalid_argument);
}

/// Every entry point that steps a fleet checks the spec's reductions the same
/// way: `run`, `serve`, `bakeoff` and `plan` must each reject `spec` with
/// exactly `message`.
void expect_every_entry_point_rejects(const ScenarioSpec& spec,
                                      const std::string& message) {
  const std::vector<std::pair<std::string, std::function<void()>>>
      entry_points = {
          {"run", [&] { (void)ScenarioRunner().run(spec); }},
          {"serve", [&] { (void)ServeRunner().serve(spec, nullptr); }},
          {"bakeoff", [&] { (void)run_bakeoff(spec); }},
          {"plan", [&] { (void)run_plan(spec); }},
      };
  for (const auto& [name, run] : entry_points) {
    try {
      run();
      ADD_FAILURE() << name << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message) << name;
    }
  }
}

TEST(ScenarioRunnerRun, RejectsReductionBeyondPoolSize) {
  ScenarioSpec spec = measure_only("too_big");
  ScenarioEvent e;
  e.kind = ScenarioEventKind::kServingReduction;
  e.datacenter = 0;
  e.pool = 0;
  e.start_hour = 1.0;
  e.serving = 9;  // pool has 8
  spec.events.push_back(e);
  expect_every_entry_point_rejects(
      spec, "scenario: serving_reduction to 9 exceeds pool size 8");
}

TEST(ScenarioRunnerRun, RejectsReductionPastObservationWindow) {
  ScenarioSpec spec = measure_only("too_late");
  ScenarioEvent e;
  e.kind = ScenarioEventKind::kServingReduction;
  e.datacenter = 0;
  e.pool = 0;
  e.start_hour = 30.5;  // past the 24 h observation
  e.serving = 4;
  spec.events.push_back(e);
  // The hour prints in its shortest round-trip form, not as "30.500000".
  expect_every_entry_point_rejects(
      spec,
      "scenario: serving_reduction at hour 30.5 is past the observation "
      "window");
}

TEST(ScenarioRunnerRun, MeasureOnlyRunProducesMetricsAndSummary) {
  ScenarioSpec spec = measure_only("tiny_run");
  spec.assertions.push_back({"total_servers", AssertOp::kEq, 8.0});
  spec.assertions.push_back({"serving_final", AssertOp::kLe, 8.0});
  const ScenarioRunResult result = ScenarioRunner().run(spec);
  EXPECT_TRUE(result.assertions_pass);
  EXPECT_EQ(result.metrics.at("total_servers"), 8.0);
  EXPECT_EQ(result.metrics.at("datacenters"), 1.0);
  EXPECT_EQ(result.metrics.count("rsm_recommended"), 0u)
      << "optimize metrics must not appear for a measure-only run";
  const std::string summary = format_summary(result);
  EXPECT_NE(summary.find("scenario = tiny_run\n"), std::string::npos);
  EXPECT_NE(summary.find("metric total_servers = 8\n"), std::string::npos);
  EXPECT_NE(summary.find("assert total_servers == 8 : PASS (8)\n"),
            std::string::npos);
  EXPECT_NE(summary.find("result = PASS\n"), std::string::npos);
}

TEST(ScenarioRunnerRun, FailingAssertionFlipsResult) {
  ScenarioSpec spec = measure_only("failing");
  spec.assertions.push_back({"total_servers", AssertOp::kGt, 1000.0});
  const ScenarioRunResult result = ScenarioRunner().run(spec);
  EXPECT_FALSE(result.assertions_pass);
  const std::string summary = format_summary(result);
  EXPECT_NE(summary.find(" : FAIL ("), std::string::npos);
  EXPECT_NE(summary.find("result = FAIL\n"), std::string::npos);
}

}  // namespace
}  // namespace headroom::scenario
