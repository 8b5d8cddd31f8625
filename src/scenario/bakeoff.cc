#include "scenario/bakeoff.h"

#include <cmath>
#include <stdexcept>

#include "baseline/planner_roster.h"
#include "core/live_feed_backend.h"
#include "core/pool_model.h"
#include "scenario/pipeline_session.h"
#include "scenario/scenario_runner.h"
#include "telemetry/csv.h"
#include "telemetry/metrics.h"

namespace headroom::scenario {

namespace {

using telemetry::MetricKind;

/// Pulls the observation phase back out of the stepped fleet's store as a
/// per-window planner grid, through the same sealed-feed path the RSM
/// session reads (one window per observe()).
[[nodiscard]] std::vector<core::PlannerWindow> read_grid(
    const sim::FleetSimulator& fleet, const ScenarioSpec& spec) {
  core::LiveFeedBackend::Options opt =
      target_feed_options(fleet, 0, spec.window_seconds);
  opt.sealed = true;
  opt.label = "bakeoff feed";
  core::LiveFeedBackend feed(&fleet.store(), opt);

  const auto windows = static_cast<std::size_t>(
      (spec.days * kDaySeconds + spec.window_seconds - 1) /
      spec.window_seconds);
  std::vector<core::PlannerWindow> grid;
  grid.reserve(windows);
  for (std::size_t i = 0; i < windows; ++i) {
    const telemetry::SimTime start = feed.cursor();
    const core::ExperimentObservations obs = feed.observe(spec.window_seconds);
    for (std::size_t j = 0; j < obs.size(); ++j) {
      core::PlannerWindow w;
      w.start = start +
                static_cast<telemetry::SimTime>(j) * spec.window_seconds;
      w.seconds = spec.window_seconds;
      w.total_rps = obs.total_rps[j];
      w.serving = obs.servers[j];
      w.latency_p95_ms = obs.latency_p95_ms[j];
      w.cpu_pct = obs.cpu_pct[j];
      grid.push_back(w);
    }
  }
  return grid;
}

}  // namespace

BakeoffResult run_bakeoff(const ScenarioSpec& spec) {
  const std::string problem = validate(spec);
  if (!problem.empty()) {
    throw std::invalid_argument("bakeoff: " + problem);
  }
  if (spec.quiescent_dead_band > 0.0) {
    throw std::invalid_argument(
        "bakeoff: scenario '" + spec.name +
        "' uses a quiescent dead band (approximate stepping); its frontier "
        "is not golden-pinnable");
  }

  BakeoffResult result;
  result.spec = spec;

  // --- Observation phase, exactly as `headroom run` executes it ----------
  const sim::MicroserviceCatalog catalog;
  sim::FleetConfig config = ScenarioRunner::build_fleet(spec, catalog);
  sim::FleetSimulator fleet(std::move(config), catalog);
  result.thread_count = fleet.thread_count();

  observe_to_horizon(fleet, spec);
  result.latency_slo_ms = target_latency_slo_ms(fleet, catalog);
  result.pool_size = fleet.pool_size(0, 0);

  // --- The shared inputs: window grid + fitted response surface -----------
  const std::vector<core::PlannerWindow> grid = read_grid(fleet, spec);
  if (grid.empty()) {
    throw std::runtime_error("bakeoff: empty observation grid");
  }
  result.windows = grid.size();
  result.initial_serving = static_cast<std::size_t>(
      std::max<long long>(1, std::llround(grid.front().serving)));

  const core::PoolResponseModel surface = core::PoolResponseModel::fit(
      fleet.store().pool_scatter(0, 0, MetricKind::kRequestsPerSecond,
                                 MetricKind::kCpuPercentAttributed),
      fleet.store().pool_scatter(0, 0, MetricKind::kRequestsPerSecond,
                                 MetricKind::kLatencyP95Ms));

  core::PlannerContext context;
  context.model = &surface;
  context.latency_slo_ms = result.latency_slo_ms;
  context.pool_size = result.pool_size;
  context.min_servers = 1;
  context.window_seconds = spec.window_seconds;

  // --- The RSM entrant: the paper's planner run over the surface ----------
  std::vector<double> demand;
  demand.reserve(grid.size());
  for (const core::PlannerWindow& w : grid) demand.push_back(w.total_rps);

  core::ModelExperimentBackend::Options mopt;
  mopt.pool_size = result.pool_size;
  mopt.serving = result.initial_serving;
  mopt.window_seconds = spec.window_seconds;
  core::ModelExperimentBackend rsm_backend(&surface, std::move(demand), mopt);

  core::RsmOptions ropt;
  ropt.latency_slo_ms = result.latency_slo_ms;
  result.rsm = core::RsmPlanner(ropt).optimize(rsm_backend);

  // --- Replay the full roster over the identical grid ---------------------
  core::StaticCapacityPlanner rsm_static("rsm",
                                         result.rsm.recommended_serving);
  result.scores.push_back(core::replay_capacity_planner(
      rsm_static, grid, context, result.initial_serving));
  for (const auto& planner : baseline::default_roster()) {
    result.scores.push_back(core::replay_capacity_planner(
        *planner, grid, context, result.initial_serving));
  }
  return result;
}

std::string format_frontier(const BakeoffResult& result) {
  const auto fmt = [](double v) { return telemetry::format_double(v); };
  std::string out;
  out += "bakeoff = " + result.spec.name + "\n";
  out += "seed = " + std::to_string(result.spec.seed) + "\n";
  out += "days = " + std::to_string(result.spec.days) + "\n";
  out += "window_seconds = " + std::to_string(result.spec.window_seconds) +
         "\n";
  out += "windows = " + std::to_string(result.windows) + "\n";
  out += "latency_slo_ms = " + fmt(result.latency_slo_ms) + "\n";
  out += "pool_size = " + std::to_string(result.pool_size) + "\n";
  out += "initial_serving = " + std::to_string(result.initial_serving) + "\n";
  out += "rsm_recommended = " +
         std::to_string(result.rsm.recommended_serving) + "\n";
  out += "planners = " + std::to_string(result.scores.size()) + "\n";
  for (const core::PlannerScore& s : result.scores) {
    out += "frontier " + s.planner;
    out += " server_seconds = " + fmt(s.server_seconds);
    out += " violation_seconds = " + fmt(s.violation_seconds);
    out += " violation_fraction = " + fmt(s.violation_fraction());
    out += " switched_servers = " + fmt(s.switched_servers);
    out += " switches = " + std::to_string(s.switches);
    out += " peak_serving = " + std::to_string(s.peak_serving);
    out += " min_serving = " + std::to_string(s.min_serving);
    out += " mean_serving = " + fmt(s.mean_serving());
    out += "\n";
  }
  return out;
}

}  // namespace headroom::scenario
