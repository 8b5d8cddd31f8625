// Scenario execution: spec -> fleet -> events -> pipeline -> summary.
//
// The runner builds the FleetConfig a spec describes (topology preset plus
// per-DC / per-pool overrides), installs the event timeline (traffic
// multipliers and outages into the workload::EventSchedule, maintenance
// waves as PoolIncidents, serving reductions applied mid-run), steps the
// simulator through the observation phase, then executes the selected
// methodology steps against pool (0, 0) exactly as the CLI pipeline does.
// The outcome is both structured (per-step results for narrative display)
// and flat (a metric map the spec's assertions are checked against).
//
// Two execution modes share every pipeline stage:
//   run()    — simulator mode: steps a fleet for the observation phase and
//              hands the RSM planner a live SimPoolBackend.
//   replay() — trace mode: no stepping at all. Observation-phase telemetry
//              comes from a recorded MetricStore, the RSM planner reads a
//              sealed LiveFeedBackend over the same recording, and the
//              environment metrics are recomputed from the spec's demand
//              oracle (a pure function of the config, so they match the
//              recording run bit-for-bit). A lossless trace round-trip
//              therefore reproduces format_summary() byte-for-byte.
//
// Determinism: for a fixed spec (ignoring `threads`), every thread count
// yields a bit-identical metric map and summary — the simulator's
// parallel-stepping guarantee carries through, which is what lets golden
// tests pin format_summary() byte-for-byte.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/headroom_optimizer.h"
#include "core/metric_validator.h"
#include "core/regression_gate.h"
#include "core/rsm_planner.h"
#include "core/server_grouper.h"
#include "scenario/scenario_spec.h"
#include "sim/fleet.h"
#include "sim/microservice.h"
#include "sim/topology.h"
#include "workload/synthetic.h"

namespace headroom::scenario {

struct AssertionOutcome {
  ScenarioAssertion assertion;
  double observed = 0.0;
  bool pass = false;
};

struct ScenarioRunResult {
  ScenarioSpec spec;

  // Structured per-step results (filled only for steps the spec ran).
  std::vector<core::MetricAssessment> assessments;
  bool metric_valid = false;
  core::PoolGrouping grouping;
  core::HeadroomPlan plan;
  core::RsmResult rsm;
  workload::StreamComparison model_cmp;
  core::GateResult gate;
  double latency_slo_ms = 0.0;  ///< Of the target pool's service.

  /// Flat summary metrics — the assertion vocabulary (known_metrics()).
  std::map<std::string, double> metrics;
  std::vector<AssertionOutcome> assertions;
  bool assertions_pass = true;

  /// Resolved stepping lanes. Deliberately NOT part of the summary.
  std::size_t thread_count = 1;
};

class ScenarioRunner {
 public:
  ScenarioRunner() = default;

  /// Executes the scenario. Throws std::invalid_argument for problems
  /// visible only at build/run time (spec fails validate(), a service name
  /// missing from the catalog, a serving reduction exceeding a pool size).
  [[nodiscard]] ScenarioRunResult run(const ScenarioSpec& spec) const;

  /// run() on a caller-constructed fleet, which must be freshly built from
  /// build_fleet(spec) and never stepped. Trace export uses this: the
  /// stepped fleet's telemetry is what gets captured after the run.
  [[nodiscard]] ScenarioRunResult run_on_fleet(
      const ScenarioSpec& spec, sim::FleetSimulator& fleet,
      const sim::MicroserviceCatalog& catalog) const;

  /// Executes the scenario's pipeline against recorded telemetry instead
  /// of a simulator (see the header comment). `trace` is the full
  /// telemetry of a prior run of the same spec (observation phase and RSM
  /// experiment windows); `server_days` are its per-server-day CPU
  /// snapshots, the grouping step's input. Throws std::invalid_argument
  /// for spec problems and std::runtime_error when the replayed planner
  /// diverges from (or exhausts) the recording.
  [[nodiscard]] ScenarioRunResult replay(
      const ScenarioSpec& spec, const telemetry::MetricStore& trace,
      std::span<const sim::ServerDayCpu> server_days) const;

  /// Builds the FleetConfig for a spec: topology preset, overrides, and
  /// schedule-level events (traffic, outage, maintenance waves). Serving
  /// reductions are runtime actions and are not represented in the config.
  [[nodiscard]] static sim::FleetConfig build_fleet(
      const ScenarioSpec& spec, const sim::MicroserviceCatalog& catalog);
};

/// Machine-readable run summary: header, `metric` lines in sorted key
/// order, `assert` verdicts in spec order, and a final `result` line.
/// Byte-identical for any thread count.
[[nodiscard]] std::string format_summary(const ScenarioRunResult& result);

}  // namespace headroom::scenario
