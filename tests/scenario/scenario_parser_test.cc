#include "scenario/scenario_parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario_spec.h"

namespace headroom::scenario {
namespace {

// ---------------------------------------------------------------------------
// Happy path

constexpr const char* kMinimal =
    "[scenario]\n"
    "name = tiny\n";

TEST(ScenarioParser, MinimalFileUsesDefaults) {
  const ParseResult result = parse_scenario(kMinimal, "test.scn");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.spec.name, "tiny");
  EXPECT_EQ(result.spec.seed, 5u);
  EXPECT_EQ(result.spec.days, 2);
  EXPECT_EQ(result.spec.steps, kAllSteps);
  EXPECT_EQ(result.spec.fleet, FleetKind::kSinglePool);
  EXPECT_EQ(result.spec.service, "D");
  EXPECT_EQ(result.spec.servers, 64u);
}

TEST(ScenarioParser, ParsesCommentsAndBlankLines) {
  const ParseResult result = parse_scenario(
      "# leading comment\n"
      "\n"
      "[scenario]\n"
      "  # indented comment\n"
      "name = commented\n"
      "\n",
      "test.scn");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.spec.name, "commented");
}

TEST(ScenarioParser, ParsesFullSpec) {
  const ParseResult result = parse_scenario(
      "[scenario]\n"
      "name = full\n"
      "description = all the %CPU = knobs\n"
      "seed = 42\n"
      "days = 3\n"
      "threads = 2\n"
      "window_seconds = 60\n"
      "steps = measure, optimize\n"
      "\n"
      "[fleet]\n"
      "kind = multi_dc\n"
      "datacenters = 4\n"
      "service = B\n"
      "servers = 16\n"
      "\n"
      "[datacenter 1]\n"
      "demand_weight = 1.5\n"
      "timezone_offset_hours = -3\n"
      "\n"
      "[pool 0 0]\n"
      "servers = 20\n"
      "demand_multiplier = 1.8\n"
      "\n"
      "[event]\n"
      "kind = traffic_multiplier\n"
      "datacenter = 2\n"
      "start_hour = 30\n"
      "duration_hours = 2\n"
      "multiplier = 4\n"
      "\n"
      "[event]\n"
      "kind = serving_reduction\n"
      "datacenter = 0\n"
      "pool = 0\n"
      "start_hour = 40\n"
      "serving = 12\n"
      "\n"
      "[assert]\n"
      "expect = rsm_reduction_pct >= 20\n",
      "test.scn");
  ASSERT_TRUE(result.ok()) << result.error;
  const ScenarioSpec& spec = result.spec;
  EXPECT_EQ(spec.description, "all the %CPU = knobs");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_EQ(spec.window_seconds, 60);
  EXPECT_EQ(spec.steps, step_bit(PipelineStep::kMeasure) |
                            step_bit(PipelineStep::kOptimize));
  EXPECT_EQ(spec.fleet, FleetKind::kMultiDc);
  EXPECT_EQ(spec.datacenters, 4u);
  ASSERT_EQ(spec.datacenter_overrides.size(), 1u);
  EXPECT_EQ(spec.datacenter_overrides[0].datacenter, 1u);
  EXPECT_EQ(spec.datacenter_overrides[0].demand_weight, 1.5);
  ASSERT_EQ(spec.pool_overrides.size(), 1u);
  EXPECT_EQ(spec.pool_overrides[0].servers, 20u);
  ASSERT_EQ(spec.events.size(), 2u);
  EXPECT_EQ(spec.events[0].kind, ScenarioEventKind::kTrafficMultiplier);
  EXPECT_EQ(spec.events[0].multiplier, 4.0);
  EXPECT_EQ(spec.events[1].kind, ScenarioEventKind::kServingReduction);
  EXPECT_EQ(spec.events[1].serving, 12u);
  ASSERT_EQ(spec.assertions.size(), 1u);
  EXPECT_EQ(spec.assertions[0].metric, "rsm_reduction_pct");
  EXPECT_EQ(spec.assertions[0].op, AssertOp::kGe);
  EXPECT_EQ(spec.assertions[0].value, 20.0);
}

TEST(ScenarioParser, EventDatacenterAllMeansEveryDatacenter) {
  const ParseResult result = parse_scenario(
      "[scenario]\n"
      "name = global\n"
      "[fleet]\n"
      "kind = multi_dc\n"
      "datacenters = 3\n"
      "[event]\n"
      "kind = traffic_multiplier\n"
      "datacenter = all\n"
      "start_hour = 1\n"
      "duration_hours = 1\n"
      "multiplier = 2\n",
      "test.scn");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(result.spec.events[0].datacenter.has_value());
}

// ---------------------------------------------------------------------------
// Round trips

ScenarioSpec rich_spec() {
  ScenarioSpec spec;
  spec.name = "round_trip";
  spec.description = "all features, odd values: 0.1 + 0.2 != 0.3";
  spec.seed = 123456789012345ull;
  spec.days = 4;
  spec.threads = 3;
  spec.window_seconds = 90;
  spec.steps = step_bit(PipelineStep::kMeasure) |
               step_bit(PipelineStep::kOptimize) |
               step_bit(PipelineStep::kValidate);
  spec.fleet = FleetKind::kMultiDc;
  spec.service = "C";
  spec.servers = 17;
  spec.datacenters = 5;
  spec.datacenter_overrides.push_back(
      {.datacenter = 2, .demand_weight = 0.1 + 0.2,
       .timezone_offset_hours = -7.25});
  spec.pool_overrides.push_back({.datacenter = 1,
                                 .pool = 0,
                                 .servers = 23,
                                 .demand_multiplier = 1.7,
                                 .burst_multiplier = 3.3,
                                 .burst_start_hour = 14.5,
                                 .burst_hours = 2.2});
  ScenarioEvent traffic;
  traffic.kind = ScenarioEventKind::kTrafficMultiplier;
  traffic.datacenter = 3;
  traffic.start_hour = 30.5;
  traffic.duration_hours = 1.75;
  traffic.multiplier = 4.0;
  spec.events.push_back(traffic);
  ScenarioEvent outage;
  outage.kind = ScenarioEventKind::kDatacenterOutage;
  outage.datacenter = 0;
  outage.start_hour = 50.0;
  outage.duration_hours = 2.0;
  spec.events.push_back(outage);
  ScenarioEvent wave;
  wave.kind = ScenarioEventKind::kMaintenanceWave;
  wave.start_hour = 10.0;
  wave.duration_hours = 3.0;
  wave.offline_fraction = 0.25;
  spec.events.push_back(wave);
  ScenarioEvent reduction;
  reduction.kind = ScenarioEventKind::kServingReduction;
  reduction.datacenter = 0;
  reduction.pool = 0;
  reduction.start_hour = 72.0;
  reduction.serving = 9;
  spec.events.push_back(reduction);
  spec.assertions.push_back({"rsm_reduction_pct", AssertOp::kGe, 20.0});
  spec.assertions.push_back({"metric_valid", AssertOp::kEq, 1.0});
  spec.assertions.push_back({"plan_stressed_latency_ms", AssertOp::kLt, 61.5});
  return spec;
}

TEST(ScenarioParser, SerializeParseRoundTripIsExact) {
  const ScenarioSpec spec = rich_spec();
  ASSERT_EQ(validate(spec), "");
  const std::string text = serialize_scenario(spec);
  const ParseResult result = parse_scenario(text, "round.scn");
  ASSERT_TRUE(result.ok()) << result.error << "\n" << text;
  EXPECT_EQ(result.spec, spec);
}

TEST(ScenarioParser, RoundTripIsIdempotent) {
  const std::string once = serialize_scenario(rich_spec());
  const ParseResult reparsed = parse_scenario(once, "round.scn");
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  EXPECT_EQ(serialize_scenario(reparsed.spec), once);
}

TEST(ScenarioParser, StandardFleetRoundTrips) {
  ScenarioSpec spec;
  spec.name = "std";
  spec.fleet = FleetKind::kStandard;
  spec.services = {"C", "D", "F"};
  spec.regional_peak_rps = 1234.5;
  spec.heterogeneous = true;
  spec.steps = step_bit(PipelineStep::kMeasure);
  ASSERT_EQ(validate(spec), "");
  const ParseResult result =
      parse_scenario(serialize_scenario(spec), "std.scn");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.spec, spec);
}

// ---------------------------------------------------------------------------
// Fault grammar

TEST(ScenarioParser, ParsesFaultSections) {
  const ParseResult result = parse_scenario(
      "[scenario]\n"
      "name = faulty\n"
      "[fleet]\n"
      "kind = multi_dc\n"
      "datacenters = 2\n"
      "[fault]\n"
      "kind = telemetry_gap\n"
      "datacenter = 1\n"
      "pool = 0\n"
      "start_hour = 20\n"
      "duration_hours = 0.2\n"
      "[fault]\n"
      "kind = feed_stall\n"
      "start_hour = 30\n"
      "duration_hours = 0.5\n"
      "[fault]\n"
      "kind = clock_skew\n"
      "datacenter = 0\n"
      "pool = 0\n"
      "start_hour = 12\n"
      "duration_hours = 1\n"
      "skew_seconds = 30\n",
      "test.scn");
  ASSERT_TRUE(result.ok()) << result.error;
  const std::vector<FaultSpec>& faults = result.spec.faults;
  ASSERT_EQ(faults.size(), 3u);
  EXPECT_EQ(faults[0].kind, FaultKind::kTelemetryGap);
  EXPECT_EQ(faults[0].datacenter, 1u);
  EXPECT_EQ(faults[0].pool, 0u);
  EXPECT_EQ(faults[0].start_hour, 20.0);
  EXPECT_EQ(faults[0].duration_hours, 0.2);
  EXPECT_EQ(faults[1].kind, FaultKind::kFeedStall);
  EXPECT_FALSE(faults[1].datacenter.has_value());
  EXPECT_FALSE(faults[1].pool.has_value());
  EXPECT_EQ(faults[2].kind, FaultKind::kClockSkew);
  EXPECT_EQ(faults[2].skew_seconds, 30.0);
}

TEST(ScenarioParser, FaultsAndPoolAssertionsRoundTripExactly) {
  ScenarioSpec spec;
  spec.name = "fault_round_trip";
  spec.fleet = FleetKind::kMultiDc;
  spec.datacenters = 3;
  spec.steps = step_bit(PipelineStep::kMeasure);
  FaultSpec gap;
  gap.kind = FaultKind::kTelemetryGap;
  gap.datacenter = 2;
  gap.pool = 0;
  gap.start_hour = 20.5;
  gap.duration_hours = 0.25;
  spec.faults.push_back(gap);
  FaultSpec stall;
  stall.kind = FaultKind::kFeedStall;
  stall.start_hour = 30.0;
  stall.duration_hours = 0.5;
  spec.faults.push_back(stall);
  FaultSpec skew;
  skew.kind = FaultKind::kClockSkew;
  skew.datacenter = 0;
  skew.pool = 0;
  skew.start_hour = 1.75;
  skew.duration_hours = 1.0;
  skew.skew_seconds = -45.0;
  spec.faults.push_back(skew);
  spec.assertions.push_back({"pool(1,0).peak_rps", AssertOp::kGe, 1.0});
  spec.assertions.push_back(
      {"pool(0,0).min_active_servers", AssertOp::kEq, 64.0});
  ASSERT_EQ(validate(spec), "");
  const std::string text = serialize_scenario(spec);
  const ParseResult result = parse_scenario(text, "fault_round.scn");
  ASSERT_TRUE(result.ok()) << result.error << "\n" << text;
  EXPECT_EQ(result.spec, spec);
  EXPECT_EQ(serialize_scenario(result.spec), text);
}

// ---------------------------------------------------------------------------
// Malformed inputs: precise diagnostics, no crashes (runs under asan).

struct MalformedCase {
  const char* label;
  const char* input;
  const char* expected_error;
};

const MalformedCase kMalformed[] = {
    {"empty file", "", "test.scn: missing [scenario] section"},
    {"truncated after comment", "# a comment, then nothing\n",
     "test.scn: missing [scenario] section"},
    {"missing name", "[scenario]\nseed = 1\n",
     "test.scn: missing required key 'name' in [scenario]"},
    {"key before section", "name = x\n",
     "test.scn:1: key 'name' before any section"},
    {"unterminated header", "[scenario\nname = x\n",
     "test.scn:1: unterminated section header '[scenario'"},
    {"unknown section", "[scenarios]\nname = x\n",
     "test.scn:1: unknown section '[scenarios]'"},
    {"missing equals", "[scenario]\nname x\n",
     "test.scn:2: expected 'key = value', got 'name x'"},
    {"unknown key", "[scenario]\nname = x\nfoo = 1\n",
     "test.scn:3: unknown key 'foo' in [scenario]"},
    {"duplicate key", "[scenario]\nname = x\nname = y\n",
     "test.scn:3: duplicate key 'name' in [scenario]"},
    {"negative seed", "[scenario]\nname = x\nseed = -1\n",
     "test.scn:3: bad value '-1' for 'seed' (expected unsigned integer)"},
    {"days out of range", "[scenario]\nname = x\ndays = 0\n",
     "test.scn:3: bad value '0' for 'days' (expected integer 1..3650)"},
    {"unknown step", "[scenario]\nname = x\nsteps = measure,deploy\n",
     "test.scn:3: unknown step 'deploy' (expected measure, optimize, model, "
     "validate)"},
    {"empty steps", "[scenario]\nname = x\nsteps = ,\n",
     "test.scn:3: steps must be a non-empty comma list of measure, optimize, "
     "model, validate"},
    {"duplicate scenario section", "[scenario]\nname = x\n[scenario]\n",
     "test.scn:3: duplicate [scenario] section"},
    {"unknown fleet kind", "[scenario]\nname = x\n[fleet]\nkind = galaxy\n",
     "test.scn:4: unknown fleet kind 'galaxy' (expected single_pool, "
     "multi_dc, standard)"},
    {"datacenters out of range",
     "[scenario]\nname = x\n[fleet]\nkind = multi_dc\ndatacenters = 12\n",
     "test.scn:5: bad value '12' for 'datacenters' (expected integer 1..9)"},
    {"multi_dc with one datacenter",
     "[scenario]\nname = x\n[fleet]\nkind = multi_dc\n",
     "test.scn: multi_dc fleets need 2..9 datacenters"},
    {"datacenter section without index", "[scenario]\nname = x\n[datacenter]\n",
     "test.scn:3: [datacenter] needs a datacenter index 0..8"},
    {"pool section with one index", "[scenario]\nname = x\n[pool 0]\n",
     "test.scn:3: [pool] needs 'DC POOL' indices (DC 0..8, POOL 0..63)"},
    {"datacenter override out of range",
     "[scenario]\nname = x\n[datacenter 3]\ndemand_weight = 2\n",
     "test.scn: [datacenter 3] is out of range (fleet has 1 datacenter(s))"},
    {"event without kind", "[scenario]\nname = x\n[event]\n",
     "test.scn:3: [event] missing required key 'kind'"},
    {"event kind not first",
     "[scenario]\nname = x\n[event]\ndatacenter = 1\n",
     "test.scn:4: 'kind' must be the first key in [event]"},
    {"unknown event kind", "[scenario]\nname = x\n[event]\nkind = meteor\n",
     "test.scn:4: unknown event kind 'meteor' (expected traffic_multiplier, "
     "outage, maintenance_wave, serving_reduction)"},
    {"key invalid for event kind",
     "[scenario]\nname = x\n[event]\nkind = outage\nmultiplier = 2\n",
     "test.scn:5: key 'multiplier' is not valid for event kind 'outage'"},
    {"zero-length event",
     "[scenario]\nname = x\n[event]\nkind = outage\nstart_hour = 5\n"
     "duration_hours = 0\n",
     "test.scn: event 1: duration_hours must be positive"},
    {"truncated event misses duration",
     "[scenario]\nname = x\n[event]\nkind = traffic_multiplier\n"
     "start_hour = 5\nmultiplier = 2\n",
     "test.scn: event 1: duration_hours must be positive"},
    {"overlapping outages on one datacenter",
     "[scenario]\nname = x\n[fleet]\nkind = multi_dc\ndatacenters = 3\n"
     "[event]\nkind = outage\ndatacenter = 1\nstart_hour = 10\n"
     "duration_hours = 4\n"
     "[event]\nkind = outage\ndatacenter = 1\nstart_hour = 12\n"
     "duration_hours = 4\n",
     "test.scn: event 2: overlaps outage event 1 on the same datacenter"},
    {"serving reduction without pool",
     "[scenario]\nname = x\n[event]\nkind = serving_reduction\n"
     "datacenter = 0\nstart_hour = 5\nserving = 4\n",
     "test.scn: event 1: serving_reduction needs explicit datacenter and "
     "pool"},
    {"duplicate serving reduction instant",
     "[scenario]\nname = x\n"
     "[event]\nkind = serving_reduction\ndatacenter = 0\npool = 0\n"
     "start_hour = 5\nserving = 4\n"
     "[event]\nkind = serving_reduction\ndatacenter = 0\npool = 0\n"
     "start_hour = 5\nserving = 3\n",
     "test.scn: event 2: duplicate serving_reduction at hour 5 for the same "
     "pool"},
    {"duplicate serving reduction at a non-round hour",
     "[scenario]\nname = x\n"
     "[event]\nkind = serving_reduction\ndatacenter = 0\npool = 0\n"
     "start_hour = 12.345678\nserving = 4\n"
     "[event]\nkind = serving_reduction\ndatacenter = 0\npool = 0\n"
     "start_hour = 12.345678\nserving = 3\n",
     "test.scn: event 2: duplicate serving_reduction at hour 12.345678 for "
     "the same pool"},
    {"assert without expect", "[scenario]\nname = x\n[assert]\n",
     "test.scn:3: [assert] missing required key 'expect'"},
    {"assert with wrong key", "[scenario]\nname = x\n[assert]\nwant = y\n",
     "test.scn:4: unknown key 'want' in [assert] (expected 'expect')"},
    {"assert arity", "[scenario]\nname = x\n[assert]\nexpect = rsm >=\n",
     "test.scn:4: bad assertion 'rsm >=' (expected 'metric OP value')"},
    {"assert bad operator",
     "[scenario]\nname = x\n[assert]\nexpect = metric_valid => 1\n",
     "test.scn:4: unknown operator '=>' in assertion (expected >=, <=, >, <, "
     "==, !=)"},
    {"assert non-numeric value",
     "[scenario]\nname = x\n[assert]\nexpect = metric_valid == yes\n",
     "test.scn:4: bad assertion value 'yes' (expected a number)"},
    {"assert unknown metric",
     "[scenario]\nname = x\n[assert]\nexpect = bogus_metric >= 1\n",
     "test.scn: unknown assertion metric 'bogus_metric'"},
    {"assert requires skipped step",
     "[scenario]\nname = x\nsteps = measure\n[assert]\n"
     "expect = rsm_reduction_pct >= 20\n",
     "test.scn: assertion on 'rsm_reduction_pct' requires the optimize step"},
    {"bad heterogeneous bool",
     "[scenario]\nname = x\n[fleet]\nkind = standard\nheterogeneous = maybe\n",
     "test.scn:5: bad value 'maybe' for 'heterogeneous' (expected true or "
     "false)"},
    {"fault without kind", "[scenario]\nname = x\n[fault]\n",
     "test.scn:3: [fault] missing required key 'kind'"},
    {"fault kind not first",
     "[scenario]\nname = x\n[fault]\nstart_hour = 1\n",
     "test.scn:4: 'kind' must be the first key in [fault]"},
    {"unknown fault kind", "[scenario]\nname = x\n[fault]\nkind = gremlins\n",
     "test.scn:4: unknown fault kind 'gremlins' (expected telemetry_gap, "
     "nan_burst, duplicate_window, out_of_order_window, corrupt_row, "
     "feed_stall, clock_skew)"},
    {"key invalid for fault kind",
     "[scenario]\nname = x\n[fault]\nkind = telemetry_gap\n"
     "skew_seconds = 30\n",
     "test.scn:5: key 'skew_seconds' is not valid for fault kind "
     "'telemetry_gap'"},
    {"feed stall rejects a pool target",
     "[scenario]\nname = x\n[fault]\nkind = feed_stall\ndatacenter = 0\n",
     "test.scn:5: key 'datacenter' is not valid for fault kind 'feed_stall'"},
    {"zero-length fault",
     "[scenario]\nname = x\n[fault]\nkind = telemetry_gap\nstart_hour = 5\n",
     "test.scn: fault 1: duration_hours must be positive"},
    {"fault datacenter out of range",
     "[scenario]\nname = x\n[fault]\nkind = telemetry_gap\ndatacenter = 2\n"
     "start_hour = 1\nduration_hours = 1\n",
     "test.scn: fault 1: datacenter 2 is out of range (fleet has 1 "
     "datacenter(s))"},
    {"clock skew wider than a window",
     "[scenario]\nname = x\n[fault]\nkind = clock_skew\nstart_hour = 1\n"
     "duration_hours = 1\nskew_seconds = 120\n",
     "test.scn: fault 1: clock_skew needs a non-zero skew_seconds smaller "
     "than one window"},
    {"pool assertion malformed target",
     "[scenario]\nname = x\n[assert]\nexpect = pool(0.peak_rps >= 1\n",
     "test.scn: bad pool assertion target 'pool(0.peak_rps' (expected "
     "pool(DC,POOL).metric)"},
    {"pool assertion unknown base metric",
     "[scenario]\nname = x\n[assert]\nexpect = pool(0,0).median_rps >= 1\n",
     "test.scn: unknown pool metric 'median_rps' in assertion "
     "'pool(0,0).median_rps'"},
    {"pool assertion datacenter out of range",
     "[scenario]\nname = x\n[assert]\nexpect = pool(1,0).peak_rps >= 1\n",
     "test.scn: assertion 'pool(1,0).peak_rps': datacenter 1 is out of "
     "range (fleet has 1 datacenter(s))"},
    // One row per value key whose bad-value diagnostic no row above pins.
    {"threads out of range", "[scenario]\nname = x\nthreads = 4097\n",
     "test.scn:3: bad value '4097' for 'threads' (expected integer 0..4096)"},
    {"window seconds zero", "[scenario]\nname = x\nwindow_seconds = 0\n",
     "test.scn:3: bad value '0' for 'window_seconds' (expected integer "
     "1..86400)"},
    {"dead band of one", "[scenario]\nname = x\nquiescent_dead_band = 1\n",
     "test.scn:3: bad value '1' for 'quiescent_dead_band' (expected number "
     "0..1 (0 = exact stepping))"},
    {"bad accounting bool",
     "[scenario]\nname = x\nper_server_accounting = yes\n",
     "test.scn:3: bad value 'yes' for 'per_server_accounting' (expected true "
     "or false)"},
    {"empty name", "[scenario]\nname =\n", "test.scn:2: scenario name is empty"},
    {"empty fleet service", "[scenario]\nname = x\n[fleet]\nservice =\n",
     "test.scn:4: fleet service is empty"},
    {"empty services",
     "[scenario]\nname = x\n[fleet]\nkind = standard\nservices = ,\n",
     "test.scn:5: services must be a non-empty comma list"},
    {"fleet servers zero", "[scenario]\nname = x\n[fleet]\nservers = 0\n",
     "test.scn:4: bad value '0' for 'servers' (expected integer 1..1000000)"},
    {"regional peak zero",
     "[scenario]\nname = x\n[fleet]\nkind = standard\nregional_peak_rps = 0\n",
     "test.scn:5: bad value '0' for 'regional_peak_rps' (expected positive "
     "number)"},
    {"datacenter weight zero",
     "[scenario]\nname = x\n[datacenter 0]\ndemand_weight = 0\n",
     "test.scn:4: bad value '0' for 'demand_weight' (expected positive "
     "number)"},
    {"datacenter timezone out of range",
     "[scenario]\nname = x\n[datacenter 0]\ntimezone_offset_hours = 14.5\n",
     "test.scn:4: bad value '14.5' for 'timezone_offset_hours' (expected "
     "number -12..14)"},
    {"pool servers zero", "[scenario]\nname = x\n[pool 0 0]\nservers = 0\n",
     "test.scn:4: bad value '0' for 'servers' (expected integer 1..1000000)"},
    {"pool demand multiplier negative",
     "[scenario]\nname = x\n[pool 0 0]\ndemand_multiplier = -1\n",
     "test.scn:4: bad value '-1' for 'demand_multiplier' (expected positive "
     "number)"},
    {"pool burst multiplier zero",
     "[scenario]\nname = x\n[pool 0 0]\nburst_multiplier = 0\n",
     "test.scn:4: bad value '0' for 'burst_multiplier' (expected positive "
     "number)"},
    {"pool burst start at 24",
     "[scenario]\nname = x\n[pool 0 0]\nburst_start_hour = 24\n",
     "test.scn:4: bad value '24' for 'burst_start_hour' (expected number "
     "0..24)"},
    {"pool burst hours over 24",
     "[scenario]\nname = x\n[pool 0 0]\nburst_hours = 24.5\n",
     "test.scn:4: bad value '24.5' for 'burst_hours' (expected number 0..24)"},
    {"event datacenter out of range",
     "[scenario]\nname = x\n[event]\nkind = outage\ndatacenter = 9\n",
     "test.scn:5: bad value '9' for 'datacenter' (expected index 0..8 or "
     "'all')"},
    {"event pool out of range",
     "[scenario]\nname = x\n[event]\nkind = maintenance_wave\npool = 64\n",
     "test.scn:5: bad value '64' for 'pool' (expected index 0..63)"},
    {"event start negative",
     "[scenario]\nname = x\n[event]\nkind = outage\nstart_hour = -1\n",
     "test.scn:5: bad value '-1' for 'start_hour' (expected non-negative "
     "number)"},
    {"event duration negative",
     "[scenario]\nname = x\n[event]\nkind = outage\nduration_hours = -0.5\n",
     "test.scn:5: bad value '-0.5' for 'duration_hours' (expected "
     "non-negative number)"},
    {"event multiplier zero",
     "[scenario]\nname = x\n[event]\nkind = traffic_multiplier\n"
     "multiplier = 0\n",
     "test.scn:5: bad value '0' for 'multiplier' (expected positive number)"},
    {"event offline fraction zero",
     "[scenario]\nname = x\n[event]\nkind = maintenance_wave\n"
     "offline_fraction = 0\n",
     "test.scn:5: bad value '0' for 'offline_fraction' (expected number in "
     "(0, 1])"},
    {"event serving zero",
     "[scenario]\nname = x\n[event]\nkind = serving_reduction\nserving = 0\n",
     "test.scn:5: bad value '0' for 'serving' (expected integer 1..1000000)"},
    {"fault datacenter index too large",
     "[scenario]\nname = x\n[fault]\nkind = nan_burst\ndatacenter = 9\n",
     "test.scn:5: bad value '9' for 'datacenter' (expected index 0..8)"},
    {"fault datacenter all",
     "[scenario]\nname = x\n[fault]\nkind = nan_burst\ndatacenter = all\n",
     "test.scn:5: bad value 'all' for 'datacenter' (expected index 0..8)"},
    {"fault pool out of range",
     "[scenario]\nname = x\n[fault]\nkind = corrupt_row\npool = 64\n",
     "test.scn:5: bad value '64' for 'pool' (expected index 0..63)"},
    {"fault start negative",
     "[scenario]\nname = x\n[fault]\nkind = feed_stall\nstart_hour = -1\n",
     "test.scn:5: bad value '-1' for 'start_hour' (expected non-negative "
     "number)"},
    {"fault duration zero",
     "[scenario]\nname = x\n[fault]\nkind = feed_stall\nduration_hours = 0\n",
     "test.scn:5: bad value '0' for 'duration_hours' (expected positive "
     "number)"},
    {"fault skew zero",
     "[scenario]\nname = x\n[fault]\nkind = clock_skew\nskew_seconds = 0\n",
     "test.scn:5: bad value '0' for 'skew_seconds' (expected non-zero "
     "number)"},
    // Unknown keys and a repeated [fleet].
    {"unknown fleet key", "[scenario]\nname = x\n[fleet]\nzones = 3\n",
     "test.scn:4: unknown key 'zones' in [fleet]"},
    {"unknown datacenter key",
     "[scenario]\nname = x\n[datacenter 0]\nweight = 2\n",
     "test.scn:4: unknown key 'weight' in [datacenter]"},
    {"unknown pool key", "[scenario]\nname = x\n[pool 0 0]\nsize = 2\n",
     "test.scn:4: unknown key 'size' in [pool]"},
    {"duplicate fleet section",
     "[scenario]\nname = x\n[fleet]\nservers = 8\n[fleet]\n",
     "test.scn:5: duplicate [fleet] section"},
    // One key each event and fault kind refuses.
    {"key invalid for traffic multiplier",
     "[scenario]\nname = x\n[event]\nkind = traffic_multiplier\npool = 0\n",
     "test.scn:5: key 'pool' is not valid for event kind "
     "'traffic_multiplier'"},
    {"key invalid for maintenance wave",
     "[scenario]\nname = x\n[event]\nkind = maintenance_wave\nserving = 3\n",
     "test.scn:5: key 'serving' is not valid for event kind "
     "'maintenance_wave'"},
    {"key invalid for serving reduction",
     "[scenario]\nname = x\n[event]\nkind = serving_reduction\n"
     "duration_hours = 1\n",
     "test.scn:5: key 'duration_hours' is not valid for event kind "
     "'serving_reduction'"},
    {"unknown key in an event",
     "[scenario]\nname = x\n[event]\nkind = outage\nseverity = 2\n",
     "test.scn:5: key 'severity' is not valid for event kind 'outage'"},
    {"key invalid for nan burst",
     "[scenario]\nname = x\n[fault]\nkind = nan_burst\nskew_seconds = 5\n",
     "test.scn:5: key 'skew_seconds' is not valid for fault kind "
     "'nan_burst'"},
    {"key invalid for duplicate window",
     "[scenario]\nname = x\n[fault]\nkind = duplicate_window\n"
     "skew_seconds = 5\n",
     "test.scn:5: key 'skew_seconds' is not valid for fault kind "
     "'duplicate_window'"},
    {"key invalid for out of order window",
     "[scenario]\nname = x\n[fault]\nkind = out_of_order_window\n"
     "multiplier = 2\n",
     "test.scn:5: key 'multiplier' is not valid for fault kind "
     "'out_of_order_window'"},
    {"key invalid for corrupt row",
     "[scenario]\nname = x\n[fault]\nkind = corrupt_row\nserving = 2\n",
     "test.scn:5: key 'serving' is not valid for fault kind 'corrupt_row'"},
    {"key invalid for clock skew",
     "[scenario]\nname = x\n[fault]\nkind = clock_skew\nmultiplier = 2\n",
     "test.scn:5: key 'multiplier' is not valid for fault kind 'clock_skew'"},
    {"feed stall rejects a pool",
     "[scenario]\nname = x\n[fault]\nkind = feed_stall\npool = 0\n",
     "test.scn:5: key 'pool' is not valid for fault kind 'feed_stall'"},
    // A [fleet] key its kind does not take: serialize_scenario would drop
    // it, so the round trip would not hold.
    {"heterogeneous under single pool",
     "[scenario]\nname = x\n[fleet]\nkind = single_pool\nheterogeneous = true\n",
     "test.scn:5: key 'heterogeneous' is not valid for fleet kind "
     "'single_pool'"},
    {"servers under standard",
     "[scenario]\nname = x\n[fleet]\nkind = standard\nservers = 10\n",
     "test.scn:5: key 'servers' is not valid for fleet kind 'standard'"},
    {"regional peak under multi dc",
     "[scenario]\nname = x\n[fleet]\nkind = multi_dc\ndatacenters = 2\n"
     "regional_peak_rps = 5\n",
     "test.scn:6: key 'regional_peak_rps' is not valid for fleet kind "
     "'multi_dc'"},
    {"off kind fleet key before the kind",
     "[scenario]\nname = x\n[fleet]\nservers = 10\nservices = C\n"
     "kind = multi_dc\ndatacenters = 2\n",
     "test.scn:5: key 'services' is not valid for fleet kind 'multi_dc'"},
    {"off kind fleet key under the default kind",
     "[scenario]\nname = x\n[fleet]\ndatacenters = 1\n",
     "test.scn:4: key 'datacenters' is not valid for fleet kind "
     "'single_pool'"},
};

class ScenarioParserMalformed
    : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(ScenarioParserMalformed, ReportsPreciseError) {
  const MalformedCase& c = GetParam();
  const ParseResult result = parse_scenario(c.input, "test.scn");
  EXPECT_FALSE(result.ok()) << "input unexpectedly parsed: " << c.input;
  EXPECT_EQ(result.error, c.expected_error);
}

INSTANTIATE_TEST_SUITE_P(
    Table, ScenarioParserMalformed, ::testing::ValuesIn(kMalformed),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      std::string name = info.param.label;
      for (char& ch : name) {
        if (!(std::isalnum(static_cast<unsigned char>(ch)))) ch = '_';
      }
      return name;
    });

TEST(ScenarioParser, EmbeddedNulIsABadValue) {
  // strtoull/strtod stop at a NUL; the value must be read to its end.
  using namespace std::string_literals;
  const struct {
    std::string input;
    std::string expected_error;
  } cases[] = {
      {"[scenario]\nname = x\nseed = 5\0junk\n"s,
       "test.scn:3: bad value '5\0junk' for 'seed' (expected unsigned "
       "integer)"s},
      {"[scenario]\nname = x\ndays = 1\0\n"s,
       "test.scn:3: bad value '1\0' for 'days' (expected integer 1..3650)"s},
      {"[scenario]\nname = x\nquiescent_dead_band = 0.5\0\n"s,
       "test.scn:3: bad value '0.5\0' for 'quiescent_dead_band' (expected "
       "number 0..1 (0 = exact stepping))"s},
      {"[scenario]\nname = x\n[assert]\nexpect = metric_valid == 1\0\n"s,
       "test.scn:4: bad assertion value '1\0' (expected a number)"s},
  };
  for (const auto& c : cases) {
    const ParseResult result = parse_scenario(c.input, "test.scn");
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.error, c.expected_error);
  }
}

TEST(ScenarioParser, MissingFileReportsOpenError) {
  const ParseResult result =
      load_scenario_file("/nonexistent/definitely_missing.scn");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error,
            "/nonexistent/definitely_missing.scn: cannot open scenario file");
}

// ---------------------------------------------------------------------------
// Hostile inputs: seeded mutations of every shipped scenario file (runs
// under asan). Each mutant either fails with a test.scn diagnostic or parses
// to a spec whose canonical form parses back equal and is a fixed point.

#ifndef HEADROOM_SCENARIO_DIR
#error "HEADROOM_SCENARIO_DIR must point at examples/scenarios"
#endif

/// Applies one of seven edits to `text`: drop, duplicate or truncate a
/// line, flip a bit of a byte, insert a NUL, convert to CRLF, or prepend
/// a UTF-8 byte-order mark.
std::string mutate(std::string text, std::mt19937_64& rng) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const auto join_lines = [&] {
    std::string out;
    for (const std::string& line : lines) out += line + '\n';
    return out;
  };
  const std::size_t at = lines.empty() ? 0 : rng() % lines.size();
  switch (rng() % 7) {
    case 0:
      if (!lines.empty()) lines.erase(lines.begin() + at);
      return join_lines();
    case 1:
      if (!lines.empty()) lines.insert(lines.begin() + at, lines[at]);
      return join_lines();
    case 2:
      if (!lines.empty()) lines[at].resize(rng() % (lines[at].size() + 1));
      return join_lines();
    case 3:
      if (!text.empty()) {
        text[rng() % text.size()] ^= static_cast<char>(1u << (rng() % 8));
      }
      return text;
    case 4:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     rng() % (text.size() + 1)),
                  '\0');
      return text;
    case 5: {
      std::string crlf;
      for (const char c : text) {
        if (c == '\n') crlf += '\r';
        crlf += c;
      }
      return crlf;
    }
    default:
      return "\xEF\xBB\xBF" + text;
  }
}

TEST(ScenarioParserHostile, MutantsFailCleanlyOrRoundTrip) {
  constexpr int kMutantsPerFile = 200;
  std::mt19937_64 rng(20181);  // Fixed: the sweep is the same every run.
  int parsed = 0;
  int rejected = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(HEADROOM_SCENARIO_DIR)) {
    if (entry.path().extension() != ".scn") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    for (int i = 0; i < kMutantsPerFile; ++i) {
      std::string mutant = buffer.str();
      for (int edits = 1 + static_cast<int>(rng() % 3); edits > 0; --edits) {
        mutant = mutate(std::move(mutant), rng);
      }
      const ParseResult first = parse_scenario(mutant, "test.scn");
      if (!first.ok()) {
        ++rejected;
        EXPECT_EQ(first.error.rfind("test.scn:", 0), 0u)
            << first.error << "\n--- mutant of " << entry.path() << ":\n"
            << mutant;
        continue;
      }
      ++parsed;
      const std::string canonical = serialize_scenario(first.spec);
      const ParseResult second = parse_scenario(canonical, "test.scn");
      ASSERT_TRUE(second.ok()) << second.error << "\n--- mutant of "
                               << entry.path() << ":\n" << mutant;
      EXPECT_EQ(second.spec, first.spec)
          << "--- mutant of " << entry.path() << ":\n" << mutant;
      EXPECT_EQ(serialize_scenario(second.spec), canonical)
          << "--- mutant of " << entry.path() << ":\n" << mutant;
    }
  }
  // Both outcomes must occur, or the sweep tests nothing.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------------
// Spec helpers

TEST(ScenarioSpec, AssertionHoldsPerOperator) {
  EXPECT_TRUE((ScenarioAssertion{"m", AssertOp::kGe, 2.0}).holds(2.0));
  EXPECT_FALSE((ScenarioAssertion{"m", AssertOp::kGt, 2.0}).holds(2.0));
  EXPECT_TRUE((ScenarioAssertion{"m", AssertOp::kLe, 2.0}).holds(2.0));
  EXPECT_FALSE((ScenarioAssertion{"m", AssertOp::kLt, 2.0}).holds(2.0));
  EXPECT_TRUE((ScenarioAssertion{"m", AssertOp::kEq, 2.0}).holds(2.0));
  EXPECT_TRUE((ScenarioAssertion{"m", AssertOp::kNe, 2.0}).holds(3.0));
}

TEST(ScenarioSpec, ValidateRejectsPoolOnDemandLevelEvents) {
  // The parser refuses a `pool` key on traffic/outage events; validate()
  // must hold programmatic specs to the same rule so every accepted spec
  // survives a serialize/parse round trip.
  ScenarioSpec spec;
  spec.name = "x";
  ScenarioEvent e;
  e.kind = ScenarioEventKind::kDatacenterOutage;
  e.pool = 0;
  e.start_hour = 1.0;
  e.duration_hours = 1.0;
  spec.events.push_back(e);
  EXPECT_EQ(validate(spec),
            "event 1: 'pool' does not apply to this event kind");
  spec.events[0].kind = ScenarioEventKind::kTrafficMultiplier;
  EXPECT_EQ(validate(spec),
            "event 1: 'pool' does not apply to this event kind");
  spec.events[0].pool.reset();
  EXPECT_EQ(validate(spec), "");
}

// ---------------------------------------------------------------------------
// Failover policy selection

TEST(ScenarioParser, ParsesFailoverPolicy) {
  const ParseResult result = parse_scenario(
      "[scenario]\n"
      "name = fo\n"
      "failover = latency_aware\n",
      "test.scn");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.spec.failover, sim::FailoverPolicyKind::kLatencyAware);
}

TEST(ScenarioParser, RejectsUnknownFailoverPolicyExactly) {
  const ParseResult result = parse_scenario(
      "[scenario]\n"
      "name = fo\n"
      "failover = closest\n",
      "test.scn");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error,
            "test.scn:3: bad value 'closest' for 'failover' (expected "
            "nearest_survivor, latency_aware, cost_aware)");
}

TEST(ScenarioParser, FailoverRoundTripsAndDefaultStaysImplicit) {
  // Non-default policies serialize and survive the round trip; the default
  // must NOT be emitted, so every pre-existing scenario file stays
  // byte-identical under serialize(parse(.)).
  ScenarioSpec spec = rich_spec();
  spec.failover = sim::FailoverPolicyKind::kCostAware;
  const std::string text = serialize_scenario(spec);
  EXPECT_NE(text.find("failover = cost_aware\n"), std::string::npos) << text;
  const ParseResult reparsed = parse_scenario(text, "round.scn");
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  EXPECT_EQ(reparsed.spec, spec);

  spec.failover = sim::FailoverPolicyKind::kNearestSurvivor;
  EXPECT_EQ(serialize_scenario(spec).find("failover"), std::string::npos);
}

TEST(ScenarioSpec, KnownMetricsAreSortedAndNonEmpty) {
  const std::vector<std::string>& names = known_metrics();
  ASSERT_FALSE(names.empty());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

}  // namespace
}  // namespace headroom::scenario
