// Golden end-to-end tests over the shipped scenario library.
//
// Every examples/scenarios/*.scn runs through the full ScenarioRunner at
// its committed seed and the machine-readable summary is pinned
// byte-for-byte against tests/scenario/golden/<name>.golden. The summary
// must also be bit-identical when the fleet steps on multiple threads —
// the determinism guarantee the scenario subsystem inherits from the
// parallel simulator.
//
// Regenerate the pins after an intentional behaviour change by running
// build/tests/scenario/headroom_scenario_golden_tests with
// HEADROOM_UPDATE_GOLDENS=1 in the environment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario_parser.h"
#include "scenario/scenario_runner.h"
#include "sim/failover.h"

#ifndef HEADROOM_SCENARIO_DIR
#error "HEADROOM_SCENARIO_DIR must point at examples/scenarios"
#endif
#ifndef HEADROOM_GOLDEN_DIR
#error "HEADROOM_GOLDEN_DIR must point at tests/scenario/golden"
#endif

namespace headroom::scenario {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> scenario_stems() {
  std::vector<std::string> stems;
  for (const auto& entry : fs::directory_iterator(HEADROOM_SCENARIO_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".scn") {
      stems.push_back(entry.path().stem().string());
    }
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

/// The golden-pinned subset: every shipped scenario except the 100x-scale
/// smoke, which steps ~570k servers and opts into the approximate
/// dead-band stepping — it runs as a Release-only wall-clock smoke (cli
/// CMake), not through the exact-mode pin sweep. The serializer round-trip
/// test below still covers it.
std::vector<std::string> pinned_scenario_stems() {
  std::vector<std::string> stems = scenario_stems();
  std::erase(stems, std::string("standard_fleet_x100"));
  return stems;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class ScenarioGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioGolden, SummaryMatchesPinAndIsThreadInvariant) {
  const fs::path scenario_path =
      fs::path(HEADROOM_SCENARIO_DIR) / (GetParam() + ".scn");
  ParseResult parsed = load_scenario_file(scenario_path.string());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.spec.seed, 5u)
      << "shipped scenarios pin their summaries at seed 5";

  const ScenarioRunner runner;
  const ScenarioRunResult result = runner.run(parsed.spec);
  const std::string summary = format_summary(result);

  EXPECT_TRUE(result.assertions_pass)
      << "shipped scenario's own assertions failed:\n" << summary;

  // Thread invariance: any stepping-thread count must reproduce the
  // summary byte-for-byte (threads is the one knob excluded from it).
  ScenarioSpec threaded = parsed.spec;
  threaded.threads = 4;
  const std::string threaded_summary =
      format_summary(runner.run(threaded));
  EXPECT_EQ(summary, threaded_summary)
      << "summary depends on the thread count";

  const fs::path golden_path =
      fs::path(HEADROOM_GOLDEN_DIR) / (GetParam() + ".golden");
  if (std::getenv("HEADROOM_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << summary;
    ASSERT_TRUE(out.good()) << "failed to write " << golden_path;
    GTEST_SKIP() << "updated " << golden_path;
  }
  ASSERT_TRUE(fs::exists(golden_path))
      << "no golden pin for " << GetParam()
      << "; run with HEADROOM_UPDATE_GOLDENS=1 to create it";
  EXPECT_EQ(summary, read_file(golden_path))
      << "summary drifted from " << golden_path
      << "; if intentional, regenerate with HEADROOM_UPDATE_GOLDENS=1";
}

INSTANTIATE_TEST_SUITE_P(Library, ScenarioGolden,
                         ::testing::ValuesIn(pinned_scenario_stems()));

TEST(ScenarioLibrary, ShipsTheAcceptanceScenarios) {
  const std::vector<std::string> stems = scenario_stems();
  ASSERT_GE(stems.size(), 10u);
  const auto has = [&](const char* name) {
    return std::find(stems.begin(), stems.end(), name) != stems.end();
  };
  EXPECT_TRUE(has("fig6_flash_crowd"));
  EXPECT_TRUE(has("fig45_dc_outage"));
  EXPECT_TRUE(has("flash_crowd_global"));
  EXPECT_TRUE(has("maintenance_peak"));
  EXPECT_TRUE(has("hot_cool_fleet"));
  EXPECT_TRUE(has("reduction_mid_run"));
  // The degraded-input pack: one scenario per fault family, each pinned
  // by a batch golden, a bakeoff frontier, and a serve health report.
  EXPECT_TRUE(has("fault_gap_heal"));
  EXPECT_TRUE(has("fault_nan_burst"));
  EXPECT_TRUE(has("fault_stalled_feed"));
  EXPECT_TRUE(has("fault_clock_skew"));
}

TEST(ScenarioLibrary, EveryShippedFileRoundTripsThroughTheSerializer) {
  for (const std::string& stem : scenario_stems()) {
    const fs::path path =
        fs::path(HEADROOM_SCENARIO_DIR) / (stem + ".scn");
    const ParseResult first = load_scenario_file(path.string());
    ASSERT_TRUE(first.ok()) << first.error;
    const ParseResult second =
        parse_scenario(serialize_scenario(first.spec), stem);
    ASSERT_TRUE(second.ok()) << second.error;
    EXPECT_EQ(first.spec, second.spec) << stem;
  }
}

// ---------------------------------------------------------------------------
// Canonical bytes: serialize_scenario(parse(file)) of every shipped file,
// and of one spec that sets every key away from its default, pinned under
// golden/canonical/ (regenerated like the summaries).

/// Compares `text` with golden/canonical/<stem>.scn, or rewrites the pin.
void expect_canonical_pin(const std::string& stem, const std::string& text) {
  const fs::path golden_path =
      fs::path(HEADROOM_GOLDEN_DIR) / "canonical" / (stem + ".scn");
  if (std::getenv("HEADROOM_UPDATE_GOLDENS") != nullptr) {
    fs::create_directories(golden_path.parent_path());
    std::ofstream out(golden_path, std::ios::binary);
    out << text;
    out.close();
    ASSERT_FALSE(out.fail()) << "failed to write " << golden_path;
    GTEST_SKIP() << "updated " << golden_path;
  }
  ASSERT_TRUE(fs::exists(golden_path))
      << "no canonical pin for " << stem
      << "; run with HEADROOM_UPDATE_GOLDENS=1 to create it";
  EXPECT_EQ(text, read_file(golden_path))
      << "canonical form drifted from " << golden_path;
}

class ScenarioCanonical : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioCanonical, SerializedBytesMatchPin) {
  const ParseResult parsed = load_scenario_file(
      (fs::path(HEADROOM_SCENARIO_DIR) / (GetParam() + ".scn")).string());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  expect_canonical_pin(GetParam(), serialize_scenario(parsed.spec));
}

INSTANTIATE_TEST_SUITE_P(Library, ScenarioCanonical,
                         ::testing::ValuesIn(scenario_stems()));

/// A multi_dc spec with every [scenario], [fleet], [datacenter] and [pool]
/// key off its default, every event kind and every fault kind with each
/// key its kind takes. The standard-fleet keys are set in hot_cool_fleet.
ScenarioSpec every_key_spec() {
  ScenarioSpec spec;
  spec.name = "every_key";
  spec.description = "every key away from its default";
  spec.seed = 11;
  spec.days = 3;
  spec.threads = 2;
  spec.window_seconds = 300;
  spec.steps = step_bit(PipelineStep::kMeasure) |
               step_bit(PipelineStep::kOptimize) |
               step_bit(PipelineStep::kValidate);
  spec.quiescent_dead_band = 0.015;
  spec.per_server_accounting = false;
  spec.failover = sim::FailoverPolicyKind::kLatencyAware;
  spec.fleet = FleetKind::kMultiDc;
  spec.datacenters = 4;
  spec.service = "B";
  spec.servers = 33;
  spec.datacenter_overrides.push_back(
      {.datacenter = 1, .demand_weight = 1.25, .timezone_offset_hours = -5.5});
  spec.pool_overrides.push_back({.datacenter = 2,
                                 .pool = 0,
                                 .servers = 40,
                                 .demand_multiplier = 1.1,
                                 .burst_multiplier = 2.5,
                                 .burst_start_hour = 13.25,
                                 .burst_hours = 1.5});
  ScenarioEvent traffic;
  traffic.kind = ScenarioEventKind::kTrafficMultiplier;
  traffic.start_hour = 30.0;
  traffic.duration_hours = 2.0;
  traffic.multiplier = 3.5;
  spec.events.push_back(traffic);
  ScenarioEvent outage;
  outage.kind = ScenarioEventKind::kDatacenterOutage;
  outage.datacenter = 3;
  outage.start_hour = 40.5;
  outage.duration_hours = 1.25;
  spec.events.push_back(outage);
  ScenarioEvent wave;
  wave.kind = ScenarioEventKind::kMaintenanceWave;
  wave.datacenter = 2;
  wave.pool = 0;
  wave.start_hour = 20.0;
  wave.duration_hours = 4.0;
  wave.offline_fraction = 0.3;
  spec.events.push_back(wave);
  ScenarioEvent reduction;
  reduction.kind = ScenarioEventKind::kServingReduction;
  reduction.datacenter = 0;
  reduction.pool = 0;
  reduction.start_hour = 60.0;
  reduction.serving = 20;
  spec.events.push_back(reduction);
  const FaultKind pool_faults[] = {
      FaultKind::kTelemetryGap, FaultKind::kNanBurst,
      FaultKind::kDuplicateWindow, FaultKind::kOutOfOrderWindow,
      FaultKind::kCorruptRow, FaultKind::kClockSkew};
  for (const FaultKind kind : pool_faults) {
    FaultSpec f;
    f.kind = kind;
    f.datacenter = static_cast<std::uint32_t>(spec.faults.size() % 4);
    f.pool = 0;
    f.start_hour = 5.0 + 3.0 * static_cast<double>(spec.faults.size());
    f.duration_hours = 0.5;
    if (kind == FaultKind::kClockSkew) f.skew_seconds = -30.0;
    spec.faults.push_back(f);
  }
  FaultSpec stall;
  stall.kind = FaultKind::kFeedStall;
  stall.start_hour = 50.0;
  stall.duration_hours = 0.25;
  spec.faults.push_back(stall);
  spec.assertions.push_back({"metric_valid", AssertOp::kEq, 1.0});
  spec.assertions.push_back({"pool(3,0).peak_rps", AssertOp::kGe, 1.0});
  spec.assertions.push_back({"rsm_reduction_pct", AssertOp::kGt, 0.5});
  return spec;
}

TEST(ScenarioCanonical, EveryKeySpecMatchesPinAndRoundTrips) {
  const ScenarioSpec spec = every_key_spec();
  ASSERT_EQ(validate(spec), "");
  const std::string text = serialize_scenario(spec);
  const ParseResult reparsed = parse_scenario(text, "every_key.scn");
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  EXPECT_EQ(reparsed.spec, spec);
  expect_canonical_pin("every_key", text);
}

}  // namespace
}  // namespace headroom::scenario
