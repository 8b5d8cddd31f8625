// CLI argument parsing rules, including the per-flag value-consumption
// regression: flags without a value (--help, --quiet) must never swallow
// the following argument.
#include "cli/args.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace headroom::cli {
namespace {

using Args = std::vector<std::string>;

TEST(CliArgs, NoArgumentsIsDefaultPipeline) {
  const ParseOutcome outcome = parse_args({});
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.options.command, Command::kPipeline);
  EXPECT_EQ(outcome.options.fleet, 64u);
  EXPECT_EQ(outcome.options.days, 3);
  EXPECT_EQ(outcome.options.pools, 1u);
  EXPECT_EQ(outcome.options.seed, 5u);
  EXPECT_EQ(outcome.options.service, "D");
  EXPECT_FALSE(outcome.options.threads_set);
}

TEST(CliArgs, ParsesAllPipelineFlags) {
  const ParseOutcome outcome = parse_args(
      Args{"--fleet", "200", "--days", "7", "--pools", "5", "--seed", "42",
           "--service", "B", "--threads", "8"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.fleet, 200u);
  EXPECT_EQ(outcome.options.days, 7);
  EXPECT_EQ(outcome.options.pools, 5u);
  EXPECT_EQ(outcome.options.seed, 42u);
  EXPECT_EQ(outcome.options.service, "B");
  EXPECT_EQ(outcome.options.threads, 8u);
  EXPECT_TRUE(outcome.options.threads_set);
}

TEST(CliArgs, HelpShortCircuits) {
  const ParseOutcome outcome = parse_args(Args{"--help"});
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.show_help);
  EXPECT_TRUE(parse_args(Args{"-h"}).show_help);
  EXPECT_TRUE(parse_args(Args{"run", "--help"}).show_help);
}

// The historical bug: the parse loop consumed a "value" after every flag,
// so a value-less flag silently ate its right-hand neighbour. --quiet
// directly before --scenario is the sharpest probe.
TEST(CliArgs, ValuelessFlagDoesNotConsumeNextArgument) {
  const ParseOutcome outcome =
      parse_args(Args{"run", "--quiet", "--scenario", "x.scn"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.options.quiet);
  EXPECT_EQ(outcome.options.scenario_path, "x.scn");
}

TEST(CliArgs, ValueFlagConsumesExactlyOneArgument) {
  const ParseOutcome outcome =
      parse_args(Args{"run", "--scenario", "a.scn", "--quiet"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.scenario_path, "a.scn");
  EXPECT_TRUE(outcome.options.quiet);
}

TEST(CliArgs, MissingValueIsAnError) {
  const ParseOutcome outcome = parse_args(Args{"--fleet"});
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, "--fleet needs a value");
  EXPECT_EQ(parse_args(Args{"run", "--scenario"}).error,
            "--scenario needs a value");
}

TEST(CliArgs, RejectsBadNumbers) {
  EXPECT_EQ(parse_args(Args{"--fleet", "abc"}).error,
            "bad value for --fleet: 'abc' (expected 1..1000000)");
  EXPECT_EQ(parse_args(Args{"--seed", "-1"}).error,
            "bad value for --seed: '-1' (expected 0.." +
                std::to_string(UINT64_MAX) + ")");
  EXPECT_EQ(parse_args(Args{"--days", "0"}).error,
            "bad value for --days: '0' (expected 1..3650)");
  EXPECT_EQ(parse_args(Args{"--pools", "10"}).error,
            "bad value for --pools: '10' (expected 1..9)");
}

TEST(CliArgs, RejectsUnknownFlagsPerCommand) {
  EXPECT_EQ(parse_args(Args{"--bogus"}).error, "unknown argument '--bogus'");
  EXPECT_EQ(parse_args(Args{"run", "--fleet", "3"}).error,
            "unknown argument '--fleet' for run");
  EXPECT_EQ(parse_args(Args{"list-scenarios", "--scenario", "x"}).error,
            "unknown argument '--scenario' for list-scenarios");
}

TEST(CliArgs, RejectsUnknownCommand) {
  const ParseOutcome outcome = parse_args(Args{"frobnicate"});
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error,
            "unknown command 'frobnicate' (expected run, serve, bakeoff, "
            "plan, export-trace, list-scenarios, or flags)");
}

TEST(CliArgs, RunRequiresScenario) {
  const ParseOutcome outcome = parse_args(Args{"run"});
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, "run needs --scenario FILE or --trace DIR");
}

TEST(CliArgs, RunParsesTraceDirectory) {
  const ParseOutcome outcome = parse_args(Args{"run", "--trace", "traces/t1"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.command, Command::kRunScenario);
  EXPECT_EQ(outcome.options.trace_dir, "traces/t1");
  EXPECT_TRUE(outcome.options.scenario_path.empty());
}

TEST(CliArgs, RunRejectsScenarioAndTraceTogether) {
  const ParseOutcome outcome =
      parse_args(Args{"run", "--scenario", "f.scn", "--trace", "d"});
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, "run takes --scenario or --trace, not both");
}

TEST(CliArgs, RunRejectsThreadsWithTrace) {
  // Replay never steps a simulator; swallowing the flag silently would be
  // the bug class this parser exists to prevent.
  const ParseOutcome outcome =
      parse_args(Args{"run", "--trace", "d", "--threads", "4"});
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error,
            "--threads does not apply to run --trace (replay does not step "
            "a simulator)");
}

TEST(CliArgs, ExportTraceParsesScenarioAndOut) {
  const ParseOutcome outcome =
      parse_args(Args{"export-trace", "--scenario", "f.scn", "--out", "d",
                      "--threads", "2", "--quiet"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.command, Command::kExportTrace);
  EXPECT_EQ(outcome.options.scenario_path, "f.scn");
  EXPECT_EQ(outcome.options.out_dir, "d");
  EXPECT_EQ(outcome.options.threads, 2u);
  EXPECT_TRUE(outcome.options.threads_set);
  EXPECT_TRUE(outcome.options.quiet);
}

TEST(CliArgs, ExportTraceRequiresScenarioAndOut) {
  EXPECT_EQ(parse_args(Args{"export-trace", "--out", "d"}).error,
            "export-trace needs --scenario FILE");
  EXPECT_EQ(parse_args(Args{"export-trace", "--scenario", "f.scn"}).error,
            "export-trace needs --out DIR");
  EXPECT_EQ(parse_args(Args{"export-trace", "--dir", "d"}).error,
            "unknown argument '--dir' for export-trace");
}

TEST(CliArgs, RunParsesScenarioAndThreadOverride) {
  const ParseOutcome outcome =
      parse_args(Args{"run", "--scenario", "f.scn", "--threads", "2"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.command, Command::kRunScenario);
  EXPECT_EQ(outcome.options.scenario_path, "f.scn");
  EXPECT_EQ(outcome.options.threads, 2u);
  EXPECT_TRUE(outcome.options.threads_set);
}

TEST(CliArgs, ListScenariosParsesDir) {
  const ParseOutcome defaults = parse_args(Args{"list-scenarios"});
  ASSERT_TRUE(defaults.ok);
  EXPECT_EQ(defaults.options.command, Command::kListScenarios);
  EXPECT_EQ(defaults.options.scenario_dir, "examples/scenarios");
  const ParseOutcome custom =
      parse_args(Args{"list-scenarios", "--dir", "/tmp/scn"});
  ASSERT_TRUE(custom.ok);
  EXPECT_EQ(custom.options.scenario_dir, "/tmp/scn");
}

TEST(CliArgs, ServeParsesScenarioAndKnobs) {
  const ParseOutcome outcome = parse_args(
      Args{"serve", "--scenario", "f.scn", "--extra-days", "2",
           "--retention-days", "3", "--reuse-baseline", "--out", "logs",
           "--threads", "2", "--quiet"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.command, Command::kServe);
  EXPECT_EQ(outcome.options.scenario_path, "f.scn");
  EXPECT_EQ(outcome.options.extra_days, 2);
  EXPECT_EQ(outcome.options.retention_days, 3);
  EXPECT_TRUE(outcome.options.reuse_baseline);
  EXPECT_EQ(outcome.options.out_dir, "logs");
  EXPECT_EQ(outcome.options.threads, 2u);
  EXPECT_TRUE(outcome.options.quiet);
}

TEST(CliArgs, ServeDefaultsMatchTheDocumentedKnobs) {
  const ParseOutcome outcome = parse_args(Args{"serve", "--scenario", "f.scn"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.extra_days, 0);
  EXPECT_EQ(outcome.options.retention_days, 2);
  EXPECT_FALSE(outcome.options.reuse_baseline);
  EXPECT_FALSE(outcome.options.follow);
  EXPECT_EQ(outcome.options.poll_ms, 20);
  EXPECT_EQ(outcome.options.max_idle_polls, 250);
}

TEST(CliArgs, ServeParsesFollowMode) {
  const ParseOutcome outcome =
      parse_args(Args{"serve", "--trace", "traces/t1", "--follow",
                      "--poll-ms", "5", "--max-idle-polls", "10"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.command, Command::kServe);
  EXPECT_EQ(outcome.options.trace_dir, "traces/t1");
  EXPECT_TRUE(outcome.options.follow);
  EXPECT_EQ(outcome.options.poll_ms, 5);
  EXPECT_EQ(outcome.options.max_idle_polls, 10);
}

TEST(CliArgs, ServeRequiresAFeed) {
  EXPECT_EQ(parse_args(Args{"serve"}).error,
            "serve needs --scenario FILE or --trace DIR --follow");
  EXPECT_EQ(parse_args(Args{"serve", "--scenario", "f.scn", "--trace", "d"})
                .error,
            "serve takes --scenario or --trace, not both");
  EXPECT_EQ(parse_args(Args{"serve", "--trace", "d"}).error,
            "serve --trace requires --follow (a recorded trace is replayed "
            "with 'run --trace'; serve tails a growing one)");
  EXPECT_EQ(parse_args(Args{"serve", "--follow", "--scenario", "f.scn"})
                .error,
            "--follow requires --trace DIR");
}

TEST(CliArgs, ServeFollowRejectsSimulationOnlyKnobs) {
  EXPECT_EQ(
      parse_args(Args{"serve", "--trace", "d", "--follow", "--threads", "4"})
          .error,
      "--threads does not apply to serve --trace (follow mode does not step "
      "a simulator)");
  EXPECT_EQ(parse_args(
                Args{"serve", "--trace", "d", "--follow", "--extra-days", "1"})
                .error,
            "--extra-days does not apply to serve --trace (the feed decides "
            "when the stream ends)");
}

TEST(CliArgs, ServeRejectsOutOfRangeKnobs) {
  EXPECT_EQ(parse_args(Args{"serve", "--scenario", "f.scn", "--retention-days",
                            "-1"})
                .error,
            "bad value for --retention-days: '-1' (expected 0..3650)");
  EXPECT_EQ(parse_args(Args{"serve", "--trace", "d", "--follow", "--poll-ms",
                            "0"})
                .error,
            "bad value for --poll-ms: '0' (expected 1..60000)");
}

TEST(CliArgs, EmptyServiceIsAnError) {
  const ParseOutcome outcome = parse_args(Args{"--service", ""});
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, "--service needs a value");
}

TEST(CliArgs, BakeoffDefaultsToTheScenarioLibrary) {
  const ParseOutcome outcome = parse_args(Args{"bakeoff"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.command, Command::kBakeoff);
  EXPECT_EQ(outcome.options.scenario_dir, "examples/scenarios");
  EXPECT_FALSE(outcome.options.dir_set);
  EXPECT_TRUE(outcome.options.scenario_path.empty());
  EXPECT_TRUE(outcome.options.out_dir.empty());
  EXPECT_FALSE(outcome.options.quiet);
}

TEST(CliArgs, BakeoffParsesAllFlags) {
  const ParseOutcome outcome = parse_args(
      Args{"bakeoff", "--dir", "scns", "--out", "frontiers", "--quiet",
           "--threads", "4"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.scenario_dir, "scns");
  EXPECT_TRUE(outcome.options.dir_set);
  EXPECT_EQ(outcome.options.out_dir, "frontiers");
  EXPECT_TRUE(outcome.options.quiet);
  EXPECT_EQ(outcome.options.threads, 4u);
  EXPECT_TRUE(outcome.options.threads_set);
}

TEST(CliArgs, BakeoffParsesSingleScenario) {
  const ParseOutcome outcome =
      parse_args(Args{"bakeoff", "--scenario", "f.scn"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.scenario_path, "f.scn");
  EXPECT_FALSE(outcome.options.dir_set);
}

TEST(CliArgs, BakeoffRejectsScenarioAndDirTogether) {
  const ParseOutcome outcome =
      parse_args(Args{"bakeoff", "--scenario", "f.scn", "--dir", "d"});
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, "bakeoff takes --scenario or --dir, not both");
}

TEST(CliArgs, BakeoffRejectsForeignFlags) {
  EXPECT_EQ(parse_args(Args{"bakeoff", "--fleet", "3"}).error,
            "unknown argument '--fleet' for bakeoff");
  EXPECT_EQ(parse_args(Args{"bakeoff", "--follow"}).error,
            "unknown argument '--follow' for bakeoff");
}

TEST(CliArgs, BakeoffValueFlagsRequireValues) {
  EXPECT_EQ(parse_args(Args{"bakeoff", "--out"}).error,
            "--out needs a value");
  EXPECT_EQ(parse_args(Args{"bakeoff", "--dir"}).error,
            "--dir needs a value");
}

TEST(CliArgs, PlanDefaults) {
  const ParseOutcome outcome = parse_args(Args{"plan"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.command, Command::kPlan);
  EXPECT_EQ(outcome.options.scenario_dir, "examples/scenarios");
  EXPECT_EQ(outcome.options.horizon_days, 90);
  EXPECT_EQ(outcome.options.growth, 0.0);
  EXPECT_TRUE(outcome.options.failover.empty());
  EXPECT_TRUE(outcome.options.out_dir.empty());
}

TEST(CliArgs, ParsesAllPlanFlags) {
  const ParseOutcome outcome = parse_args(
      Args{"plan", "--scenario", "x.scn", "--horizon", "30", "--growth",
           "1.75", "--failover", "latency_aware", "--out", "plans",
           "--threads", "4", "--quiet"});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.options.scenario_path, "x.scn");
  EXPECT_EQ(outcome.options.horizon_days, 30);
  EXPECT_DOUBLE_EQ(outcome.options.growth, 1.75);
  EXPECT_EQ(outcome.options.failover, "latency_aware");
  EXPECT_EQ(outcome.options.out_dir, "plans");
  EXPECT_EQ(outcome.options.threads, 4u);
  EXPECT_TRUE(outcome.options.quiet);
}

TEST(CliArgs, PlanValidatesFailoverPolicyName) {
  for (const char* good : {"nearest_survivor", "latency_aware", "cost_aware"}) {
    EXPECT_TRUE(parse_args(Args{"plan", "--failover", good}).ok) << good;
  }
  EXPECT_EQ(parse_args(Args{"plan", "--failover", "closest"}).error,
            "bad value for --failover: 'closest' (expected nearest_survivor, "
            "latency_aware, cost_aware)");
}

TEST(CliArgs, PlanValidatesGrowthAndHorizon) {
  EXPECT_EQ(parse_args(Args{"plan", "--growth", "0"}).error,
            "bad value for --growth: '0' (expected a positive number)");
  EXPECT_EQ(parse_args(Args{"plan", "--growth", "-1.5"}).error,
            "bad value for --growth: '-1.5' (expected a positive number)");
  EXPECT_EQ(parse_args(Args{"plan", "--growth", "abc"}).error,
            "bad value for --growth: 'abc' (expected a positive number)");
  EXPECT_EQ(parse_args(Args{"plan", "--horizon", "0"}).error,
            "bad value for --horizon: '0' (expected 1..3650)");
  EXPECT_EQ(parse_args(Args{"plan", "--horizon", "2.5"}).error,
            "bad value for --horizon: '2.5' (expected 1..3650)");
}

TEST(CliArgs, PlanSourceFlagsAreMutuallyExclusive) {
  EXPECT_EQ(
      parse_args(Args{"plan", "--scenario", "x.scn", "--trace", "d"}).error,
      "plan takes --scenario or --trace, not both");
  EXPECT_EQ(parse_args(Args{"plan", "--trace", "d", "--dir", "e"}).error,
            "plan takes --trace or --dir, not both");
  EXPECT_EQ(parse_args(Args{"plan", "--scenario", "x.scn", "--dir", "e"}).error,
            "plan takes --scenario or --dir, not both");
  EXPECT_EQ(parse_args(Args{"plan", "--trace", "d", "--threads", "4"}).error,
            "--threads does not apply to plan --trace "
            "(replay does not step a simulator)");
  // Each source alone is fine.
  EXPECT_TRUE(parse_args(Args{"plan", "--trace", "d"}).ok);
  EXPECT_TRUE(parse_args(Args{"plan", "--dir", "e"}).ok);
}

TEST(CliArgs, PlanRejectsUnknownFlags) {
  EXPECT_EQ(parse_args(Args{"plan", "--follow"}).error,
            "unknown argument '--follow' for plan");
  EXPECT_EQ(parse_args(Args{"plan", "--growth"}).error,
            "--growth needs a value");
}

TEST(CliArgs, UsageMentionsEveryCommand) {
  const std::string text = usage();
  EXPECT_NE(text.find("run --scenario"), std::string::npos);
  EXPECT_NE(text.find("list-scenarios"), std::string::npos);
  EXPECT_NE(text.find("--threads"), std::string::npos);
  EXPECT_NE(text.find("bakeoff"), std::string::npos);
  EXPECT_NE(text.find("plan"), std::string::npos);
  EXPECT_NE(text.find("--failover"), std::string::npos);
}

}  // namespace
}  // namespace headroom::cli
