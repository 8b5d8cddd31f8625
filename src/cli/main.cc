// headroom — umbrella CLI over the paper's four-step methodology.
//
// Simulates a production micro-service fleet, then runs the pipeline
// end-to-end against it:
//
//   Step 1 (Measure)  — validate the workload metric against every resource
//                       counter; find capacity-planning server groups.
//   Step 2 (Optimize) — fit the black-box pool response model, size the
//                       pool with DR/maintenance headroom, and confirm with
//                       iterative RSM reduction experiments.
//   Step 3 (Model)    — fit a synthetic workload and check it reproduces
//                       the observed request diversity.
//   Step 4 (Validate) — gate a (deliberately regressing) candidate change
//                       offline against the synthetic workload.
//
// Commands (flags in cli/args.h):
//   headroom [flags]              pipeline from flags (legacy mode)
//   headroom run --scenario FILE  declarative scenario: fleet topology,
//                                 event timeline, steps, assertions
//   headroom run --trace DIR      replay the pipeline from a recorded
//                                 trace (no simulator in the loop)
//   headroom export-trace ...     run a scenario and capture it as a
//                                 replayable trace directory
//   headroom serve ...            continuous mode: stream the pipeline
//                                 window-by-window over a live feed
//   headroom bakeoff | plan ...   planner frontiers | capacity what-ifs
//   headroom list-scenarios       describe a scenario directory
// The scenario commands share one spec loader (load_spec), bakeoff and
// plan one file-or-directory sweep (for_each_scenario), and every --out
// file one checked writer (write_report).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cli/args.h"
#include "scenario/bakeoff.h"
#include "scenario/listing.h"
#include "scenario/planning.h"
#include "scenario/scenario_parser.h"
#include "scenario/scenario_runner.h"
#include "scenario/serve.h"
#include "scenario/trace.h"
#include "sim/failover.h"
#include "telemetry/metric_store.h"

namespace {

using namespace headroom;

void print_narrative(const scenario::ScenarioRunResult& result) {
  const scenario::ScenarioSpec& spec = result.spec;
  std::printf("simulated on %zu thread(s) (deterministic for any count); "
              "%lld day(s) observed, %zu event(s), seed %llu\n",
              result.thread_count, static_cast<long long>(spec.days),
              spec.events.size(),
              static_cast<unsigned long long>(spec.seed));

  if (spec.runs(scenario::PipelineStep::kMeasure)) {
    std::printf("\n== Step 1: Measure ==\n");
    for (const auto& a : result.assessments) {
      std::printf("  %-24s -> %s (R² %.3f)\n",
                  std::string(telemetry::to_string(a.resource)).c_str(),
                  core::to_string(a.verdict).c_str(), a.fit.r_squared);
    }
    if (!result.metric_valid) {
      std::printf("  WARNING: no tight limiting resource — in production, "
                  "iterate on attribution before trusting the plan\n");
    }
    std::printf("  server groups in pool: %zu%s\n",
                result.grouping.group_count,
                result.grouping.multimodal() ? " (plan capacity per group!)"
                                             : "");
  }

  if (spec.runs(scenario::PipelineStep::kOptimize)) {
    std::printf("\n== Step 2: Optimize ==\n");
    std::printf("  headroom plan: %zu -> %zu servers (%.0f%% savings), "
                "stressed latency %.1f ms vs SLO %.1f ms\n",
                result.plan.current_servers, result.plan.recommended_servers,
                result.plan.efficiency_savings() * 100.0,
                result.plan.predicted_latency_stressed_ms,
                result.latency_slo_ms);
    for (std::size_t i = 0; i < result.rsm.iterations.size(); ++i) {
      const auto& it = result.rsm.iterations[i];
      std::printf("  RSM iter %zu: %zu servers, observed %.1f ms "
                  "(predicted %.1f)\n",
                  i, it.serving, it.observed_latency_p95_ms,
                  it.predicted_latency_ms);
    }
    std::printf("  RSM recommendation: %zu -> %zu servers (%.0f%% reduction), "
                "SLO-limited: %s\n",
                result.rsm.starting_serving, result.rsm.recommended_serving,
                result.rsm.reduction_fraction() * 100.0,
                result.rsm.slo_limit_reached ? "yes" : "no");
  }

  if (spec.runs(scenario::PipelineStep::kModel)) {
    std::printf("\n== Step 3: Model ==\n");
    std::printf("  type distance %.3f, cost ratio %.3f, rate ratio %.3f -> %s\n",
                result.model_cmp.type_distance,
                result.model_cmp.cost_mean_ratio, result.model_cmp.rate_ratio,
                result.model_cmp.equivalent ? "EQUIVALENT (usable offline)"
                                            : "NOT equivalent");
  }

  if (spec.runs(scenario::PipelineStep::kValidate)) {
    std::printf("\n== Step 4: Validate ==\n");
    std::printf("  regression gate on +18%% CPU candidate: %s\n",
                result.gate.pass ? "PASS (defect slipped through!)"
                                 : "FAIL (change correctly blocked)");
  }

  if (!result.assertions.empty()) {
    std::printf("\n== Assertions ==\n");
    for (const auto& outcome : result.assertions) {
      std::printf("  %s: %s %s %g (observed %g)\n",
                  outcome.pass ? "PASS" : "FAIL",
                  outcome.assertion.metric.c_str(),
                  std::string(scenario::to_string(outcome.assertion.op)).c_str(),
                  outcome.assertion.value, outcome.observed);
    }
  }
}

int run_pipeline(const cli::Options& opt) {
  scenario::ScenarioSpec spec;
  spec.name = "cli";
  spec.seed = opt.seed;
  spec.days = opt.days;
  spec.threads = opt.threads;
  spec.service = opt.service;
  spec.servers = opt.fleet;
  if (opt.pools > 1) {
    spec.fleet = scenario::FleetKind::kMultiDc;
    spec.datacenters = opt.pools;
  }
  std::printf("headroom: service %s, %zu server(s)/pool, %zu pool(s), "
              "%lld day(s) observed, seed %llu\n",
              opt.service.c_str(), opt.fleet, opt.pools,
              static_cast<long long>(opt.days),
              static_cast<unsigned long long>(opt.seed));
  const scenario::ScenarioRunResult result = scenario::ScenarioRunner().run(spec);
  print_narrative(result);
  std::printf("\npipeline complete: measure%s, optimize (%zu -> %zu RSM / "
              "%zu plan), model %s, validate %s\n",
              result.metric_valid ? " ok" : " needs-iteration",
              result.rsm.starting_serving, result.rsm.recommended_serving,
              result.plan.recommended_servers,
              result.model_cmp.equivalent ? "ok" : "divergent",
              result.gate.pass ? "pass" : "blocked");
  return 0;
}

/// Shared tail of the scenario-shaped commands: narrative, summary, and
/// the 0/3 exit on assertion outcome.
int finish_run(const cli::Options& opt,
               const scenario::ScenarioRunResult& result) {
  if (!opt.quiet) {
    print_narrative(result);
    std::printf("\n--- summary ---\n");
  }
  std::fputs(scenario::format_summary(result).c_str(), stdout);
  if (!result.assertions_pass) {
    std::fprintf(stderr, "headroom: scenario '%s' assertions FAILED\n",
                 result.spec.name.c_str());
    return 3;
  }
  return 0;
}

/// The --scenario file of run, export-trace and serve, with the --threads
/// override applied; nullopt (diagnostic printed, exit 2) on a parse error.
std::optional<scenario::ScenarioSpec> load_spec(const cli::Options& opt) {
  scenario::ParseResult parsed =
      scenario::load_scenario_file(opt.scenario_path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "headroom: %s\n", parsed.error.c_str());
    return std::nullopt;
  }
  if (opt.threads_set) parsed.spec.threads = opt.threads;
  return std::move(parsed.spec);
}

/// Creates --out DIR when one was given; false (diagnostic printed) when
/// it cannot be created.
bool make_out_dir(const cli::Options& opt) {
  if (opt.out_dir.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "headroom: cannot create '%s': %s\n",
                 opt.out_dir.c_str(), ec.message().c_str());
    return false;
  }
  return true;
}

/// Writes one report file into --out DIR (a no-op without --out): 0, or 2
/// with `cannot write 'PATH'` when any byte of it fails to reach the file.
int write_report(const cli::Options& opt, const std::string& name,
                 const std::string& contents) {
  if (opt.out_dir.empty()) return 0;
  const std::string problem = scenario::write_text_file(
      std::filesystem::path(opt.out_dir) / name, contents);
  if (problem.empty()) return 0;
  std::fprintf(stderr, "headroom: %s\n", problem.c_str());
  return 2;
}

/// bakeoff's and plan's scenario sweep: the --scenario file or every .scn
/// in --dir, then --out DIR, then `body` on each spec (--threads applied)
/// with a blank line between reports. A dead-band spec is skipped with a
/// note: approximate stepping is not golden-pinnable. Returns 2 on a load
/// or --out error, else the first non-zero `body` result, else 0.
int for_each_scenario(
    const cli::Options& opt,
    const std::function<int(const scenario::ScenarioSpec&)>& body) {
  std::vector<scenario::ScenarioSpec> specs;
  if (!opt.scenario_path.empty()) {
    std::optional<scenario::ScenarioSpec> spec = load_spec(opt);
    if (!spec) return 2;
    specs.push_back(*std::move(spec));
  } else {
    const scenario::ScenarioListing listing =
        scenario::list_scenario_dir(opt.scenario_dir);
    if (!listing.ok()) {
      std::fprintf(stderr, "headroom: %s\n", listing.error.c_str());
      return 2;
    }
    for (const scenario::ScenarioListEntry& entry : listing.entries) {
      if (!entry.ok()) {
        std::fprintf(stderr, "headroom: %s: %s\n", entry.file.c_str(),
                     entry.error.c_str());
        return 2;
      }
      specs.push_back(entry.spec);
      if (opt.threads_set) specs.back().threads = opt.threads;
    }
    if (specs.empty()) {
      std::fprintf(stderr, "headroom: no .scn files in %s\n",
                   opt.scenario_dir.c_str());
      return 2;
    }
  }
  if (!make_out_dir(opt)) return 2;

  bool first = true;
  for (const scenario::ScenarioSpec& spec : specs) {
    if (spec.quiescent_dead_band > 0.0) {
      if (!opt.quiet) {
        std::printf("headroom: skipping '%s' (quiescent dead band — "
                    "approximate stepping is not golden-pinnable)\n",
                    spec.name.c_str());
      }
      continue;
    }
    if (!first) std::printf("\n");
    first = false;
    const int rc = body(spec);
    if (rc != 0) return rc;
  }
  return 0;
}

int run_trace(const cli::Options& opt) {
  const scenario::TraceReplayResult replay =
      scenario::replay_trace(opt.trace_dir);
  if (!replay.ok()) {
    std::fprintf(stderr, "headroom: %s\n", replay.error.c_str());
    return 2;
  }
  if (!opt.quiet) {
    std::printf("headroom: replaying trace '%s' (scenario '%s', no "
                "simulator in the loop)\n",
                opt.trace_dir.c_str(), replay.result.spec.name.c_str());
  }
  return finish_run(opt, replay.result);
}

int export_trace(const cli::Options& opt) {
  const std::optional<scenario::ScenarioSpec> spec = load_spec(opt);
  if (!spec) return 2;
  if (!opt.quiet) {
    std::printf("headroom: recording scenario '%s' into %s\n",
                spec->name.c_str(), opt.out_dir.c_str());
  }
  scenario::ScenarioRunResult result;
  const scenario::TraceExportResult exported =
      scenario::export_trace(*spec, opt.out_dir, &result);
  if (!exported.ok()) {
    std::fprintf(stderr, "headroom: %s\n", exported.error.c_str());
    return 2;
  }
  if (!opt.quiet) {
    for (const std::string& file : exported.files) {
      std::printf("  wrote %s\n", file.c_str());
    }
  }
  return finish_run(opt, result);
}

int run_scenario(const cli::Options& opt) {
  const std::optional<scenario::ScenarioSpec> spec = load_spec(opt);
  if (!spec) return 2;
  if (!opt.quiet) {
    std::printf("headroom: scenario '%s'%s%s\n", spec->name.c_str(),
                spec->description.empty() ? "" : " — ",
                spec->description.c_str());
  }
  return finish_run(opt, scenario::ScenarioRunner().run(*spec));
}

int list_scenarios(const cli::Options& opt) {
  const scenario::ScenarioListing listing =
      scenario::list_scenario_dir(opt.scenario_dir);
  if (!listing.ok()) {
    std::fprintf(stderr, "headroom: %s\n", listing.error.c_str());
    return 2;
  }
  if (listing.entries.empty()) {
    std::printf("no .scn files in %s\n", opt.scenario_dir.c_str());
    return 0;
  }
  for (const scenario::ScenarioListEntry& entry : listing.entries) {
    if (!entry.ok()) {
      std::printf("%-28s PARSE ERROR: %s\n", entry.file.c_str(),
                  entry.error.c_str());
      continue;
    }
    const scenario::ScenarioSpec& spec = entry.spec;
    std::printf("%-28s %-12s %zu event(s), %zu assertion(s) — %s\n",
                entry.file.c_str(),
                std::string(scenario::to_string(spec.fleet)).c_str(),
                spec.events.size(), spec.assertions.size(),
                spec.description.c_str());
  }
  return 0;
}

int run_bakeoff_cmd(const cli::Options& opt) {
  return for_each_scenario(opt, [&](const scenario::ScenarioSpec& spec) {
    const scenario::BakeoffResult result = scenario::run_bakeoff(spec);
    const std::string frontier = scenario::format_frontier(result);
    if (!opt.quiet) {
      std::printf("headroom: bake-off '%s' — %zu planners over %zu "
                  "windows on %zu thread(s)\n",
                  spec.name.c_str(), result.scores.size(), result.windows,
                  result.thread_count);
    }
    std::fputs(frontier.c_str(), stdout);
    return write_report(opt, spec.name + ".frontier", frontier);
  });
}

int run_plan_cmd(const cli::Options& opt) {
  scenario::PlanOptions popt;
  popt.horizon_seconds = opt.horizon_days * 86400;
  if (opt.growth > 0.0) popt.growths = {1.0, opt.growth};
  if (!opt.failover.empty()) {
    sim::FailoverPolicyKind kind{};
    // args.cc validated the name; from_string cannot fail here.
    if (!sim::failover_policy_from_string(opt.failover, kind)) {
      std::fprintf(stderr, "headroom: unknown failover policy '%s'\n",
                   opt.failover.c_str());
      return 2;
    }
    popt.policies = {kind};
  }

  // Emit one report: stdout plus the optional --out file.
  const auto emit = [&](const scenario::PlanResult& result) -> int {
    const std::string report = scenario::format_plan(result);
    if (!opt.quiet) {
      std::printf("headroom: plan '%s' — %zu case(s) over %zu pool(s), "
                  "%zu window(s) of history\n",
                  result.spec.name.c_str(), result.cases.size(),
                  result.total_pools, result.windows);
    }
    std::fputs(report.c_str(), stdout);
    return write_report(opt, result.spec.name + ".plan", report);
  };

  if (!opt.trace_dir.empty()) {
    if (!make_out_dir(opt)) return 2;
    return emit(scenario::run_plan_on_trace(opt.trace_dir, popt));
  }
  return for_each_scenario(opt, [&](const scenario::ScenarioSpec& spec) {
    return emit(scenario::run_plan(spec, popt));
  });
}

int run_serve(const cli::Options& opt) {
  scenario::ServeOptions sopt;
  sopt.extra_days = opt.extra_days;
  sopt.retention_seconds = opt.retention_days * 86400;
  sopt.reuse_observation_baseline = opt.reuse_baseline;
  sopt.poll_ms = opt.poll_ms;
  sopt.max_idle_polls = static_cast<std::size_t>(opt.max_idle_polls);
  sopt.harden = opt.harden;
  sopt.heal_budget_seconds = opt.heal_budget_seconds;
  sopt.staleness_budget_seconds = opt.staleness_budget_seconds;

  if (!make_out_dir(opt)) return 2;
  const std::filesystem::path log_path =
      std::filesystem::path(opt.out_dir) / "windows.log";
  std::ofstream window_log;
  if (!opt.out_dir.empty()) {
    window_log.open(log_path, std::ios::binary);
    if (!window_log) {
      std::fprintf(stderr, "headroom: cannot write '%s'\n",
                   log_path.string().c_str());
      return 2;
    }
  }
  const scenario::EmitFn emit = [&](const std::string& line) {
    if (!opt.quiet) std::printf("%s\n", line.c_str());
    if (window_log.is_open()) window_log << line << '\n';
  };

  scenario::ServeResult served;
  const scenario::ServeRunner runner(sopt);
  if (opt.trace_dir.empty()) {
    const std::optional<scenario::ScenarioSpec> spec = load_spec(opt);
    if (!spec) return 2;
    served = runner.serve(*spec, emit);
  } else {
    served = runner.follow(opt.trace_dir, emit);
  }

  if (window_log.is_open()) {
    // The log streams one line per window; a failed write of any of them
    // shows once the rest is flushed.
    window_log.close();
    if (window_log.fail()) {
      std::fprintf(stderr, "headroom: cannot write '%s'\n",
                   log_path.string().c_str());
      return 2;
    }
  }
  if (const int rc = write_report(opt, "summary.txt", served.summary)) {
    return rc;
  }
  if (served.health_active) {
    if (const int rc = write_report(opt, "health.txt", served.health_report)) {
      return rc;
    }
  }
  if (!opt.quiet) {
    std::printf("\n--- summary (%zu windows, %zu reports, %zu resident / "
                "%zu evicted samples) ---\n",
                served.windows, served.reports, served.resident_samples,
                served.evicted_samples);
  }
  std::fputs(served.summary.c_str(), stdout);
  if (served.health_active && !opt.quiet) {
    std::printf("\n--- health ---\n");
    std::fputs(served.health_report.c_str(), stdout);
  }
  if (!served.result.assertions_pass) {
    std::fprintf(stderr, "headroom: scenario '%s' assertions FAILED\n",
                 served.result.spec.name.c_str());
    return 3;
  }
  // Degraded-but-survived: the serve completed and the summary is valid,
  // but telemetry was healed, quarantined, or stale along the way.
  if (served.degraded) return 4;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const cli::ParseOutcome outcome = cli::parse_args(args);
  if (outcome.show_help) {
    std::fputs(cli::usage().c_str(), stdout);
    return 0;
  }
  if (!outcome.ok) {
    std::fprintf(stderr, "headroom: %s\n\n%s", outcome.error.c_str(),
                 cli::usage().c_str());
    return 2;
  }
  try {
    switch (outcome.options.command) {
      case cli::Command::kRunScenario:
        return outcome.options.trace_dir.empty()
                   ? run_scenario(outcome.options)
                   : run_trace(outcome.options);
      case cli::Command::kExportTrace:
        return export_trace(outcome.options);
      case cli::Command::kListScenarios:
        return list_scenarios(outcome.options);
      case cli::Command::kServe:
        return run_serve(outcome.options);
      case cli::Command::kBakeoff:
        return run_bakeoff_cmd(outcome.options);
      case cli::Command::kPlan:
        return run_plan_cmd(outcome.options);
      case cli::Command::kPipeline:
        return run_pipeline(outcome.options);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "headroom: %s\n", e.what());
    return 2;
  }
  return 2;
}
