#include "scenario/scenario_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/sim_backend.h"
#include "scenario/pipeline_session.h"
#include "workload/events.h"

namespace headroom::scenario {

namespace {

void require_service(const sim::MicroserviceCatalog& catalog,
                     const std::string& service) {
  if (!catalog.index_of(service)) {
    throw std::invalid_argument("scenario: unknown service '" + service +
                                "' (not in the micro-service catalog)");
  }
}

/// Attaches one maintenance wave to every targeted pool as PoolIncidents.
/// Incident times are pool-local; the wave's absolute start hour is shifted
/// by each DC's timezone so the wave hits every pool at the same sim time.
/// MaintenanceSchedule evaluates an incident within one local day only, so
/// a wave whose local window crosses midnight is split into one incident
/// per touched day — without this, the post-midnight portion would be
/// silently dropped for DCs whose offset pushes the window over 24:00.
void attach_wave(sim::FleetConfig& config, const ScenarioEvent& event) {
  for (std::uint32_t d = 0; d < config.datacenters.size(); ++d) {
    if (event.datacenter && *event.datacenter != d) continue;
    sim::DatacenterConfig& dc = config.datacenters[d];
    double local_start_hour = event.start_hour + dc.timezone_offset_hours;
    double remaining_hours = event.duration_hours;
    std::vector<sim::PoolIncident> pieces;
    while (remaining_hours > 0.0) {
      sim::PoolIncident incident;
      incident.day =
          static_cast<std::int64_t>(std::floor(local_start_hour / 24.0));
      incident.start_hour =
          local_start_hour - 24.0 * static_cast<double>(incident.day);
      incident.duration_hours =
          std::min(remaining_hours, 24.0 - incident.start_hour);
      if (incident.duration_hours <= 0.0) break;  // FP guard at a boundary
      incident.offline_fraction = event.offline_fraction;
      pieces.push_back(incident);
      local_start_hour += incident.duration_hours;
      remaining_hours -= incident.duration_hours;
    }
    for (std::uint32_t p = 0; p < dc.pools.size(); ++p) {
      if (event.pool && *event.pool != p) continue;
      sim::PoolConfig& pool = dc.pools[p];
      pool.incidents.insert(pool.incidents.end(), pieces.begin(),
                            pieces.end());
    }
  }
}

[[nodiscard]] std::string format_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// One PipelineSession driven start-to-finish: the batch pipeline is the
/// streaming pipeline replayed in a single call (see pipeline_session.h).
void run_pipeline_steps(const ScenarioSpec& spec, const PipelineContext& ctx,
                        ScenarioRunResult& result) {
  PipelineSession session(spec, ctx);
  session.run_measure_and_plan(result);
  session.start_rsm();
  if (!session.advance_rsm()) {
    throw std::runtime_error(
        "scenario: pipeline backend reported pending data in a batch run");
  }
  session.finalize(result);
}

}  // namespace

sim::FleetConfig ScenarioRunner::build_fleet(
    const ScenarioSpec& spec, const sim::MicroserviceCatalog& catalog) {
  const std::string problem = validate(spec);
  if (!problem.empty()) {
    throw std::invalid_argument("scenario: " + problem);
  }

  sim::FleetConfig config;
  switch (spec.fleet) {
    case FleetKind::kSinglePool:
      require_service(catalog, spec.service);
      config = sim::single_pool_fleet(catalog, spec.service, spec.servers,
                                      spec.seed);
      break;
    case FleetKind::kMultiDc:
      require_service(catalog, spec.service);
      config = sim::multi_dc_pool_fleet(catalog, spec.service,
                                        spec.datacenters, spec.servers,
                                        spec.seed);
      break;
    case FleetKind::kStandard: {
      sim::StandardFleetOptions options;
      if (!spec.services.empty()) options.services = spec.services;
      for (const std::string& service : options.services) {
        require_service(catalog, service);
      }
      options.regional_peak_rps = spec.regional_peak_rps;
      options.heterogeneous_utilization = spec.heterogeneous;
      options.seed = spec.seed;
      config = sim::standard_fleet(catalog, options);
      break;
    }
  }
  config.window_seconds = spec.window_seconds;
  config.threads = spec.threads;
  config.quiescent_dead_band = spec.quiescent_dead_band;
  config.per_server_accounting = spec.per_server_accounting;
  config.failover = spec.failover;

  for (const DatacenterOverride& o : spec.datacenter_overrides) {
    sim::DatacenterConfig& dc = config.datacenters.at(o.datacenter);
    if (o.demand_weight) dc.demand_weight = *o.demand_weight;
    if (o.timezone_offset_hours) {
      dc.timezone_offset_hours = *o.timezone_offset_hours;
    }
  }
  for (const PoolOverride& o : spec.pool_overrides) {
    sim::PoolConfig& pool =
        config.datacenters.at(o.datacenter).pools.at(o.pool);
    if (o.servers) pool.servers = *o.servers;
    if (o.demand_multiplier) pool.demand_multiplier = *o.demand_multiplier;
    if (o.burst_multiplier) pool.burst_multiplier = *o.burst_multiplier;
    if (o.burst_start_hour) pool.burst_start_hour = *o.burst_start_hour;
    if (o.burst_hours) pool.burst_hours = *o.burst_hours;
  }

  for (const ScenarioEvent& e : spec.events) {
    switch (e.kind) {
      case ScenarioEventKind::kTrafficMultiplier:
      case ScenarioEventKind::kDatacenterOutage: {
        workload::CapacityEvent event;
        event.kind = e.kind == ScenarioEventKind::kTrafficMultiplier
                         ? workload::EventKind::kTrafficMultiplier
                         : workload::EventKind::kDatacenterOutage;
        event.start = hours_to_sim(e.start_hour);
        event.end = hours_to_sim(e.start_hour + e.duration_hours);
        event.datacenter = e.datacenter;
        event.multiplier = e.multiplier;
        config.events.add(event);
        break;
      }
      case ScenarioEventKind::kMaintenanceWave:
        attach_wave(config, e);
        break;
      case ScenarioEventKind::kServingReduction:
        break;  // Runtime action; applied by run().
    }
  }
  return config;
}

ScenarioRunResult ScenarioRunner::run(const ScenarioSpec& spec) const {
  const sim::MicroserviceCatalog catalog;
  sim::FleetConfig config = build_fleet(spec, catalog);
  sim::FleetSimulator fleet(std::move(config), catalog);
  return run_on_fleet(spec, fleet, catalog);
}

ScenarioRunResult ScenarioRunner::run_on_fleet(
    const ScenarioSpec& spec, sim::FleetSimulator& fleet,
    const sim::MicroserviceCatalog& catalog) const {
  ScenarioRunResult result;
  result.spec = spec;
  result.thread_count = fleet.thread_count();

  observe_to_horizon(fleet, spec);
  compute_environment_metrics(fleet, spec, result.metrics);
  result.latency_slo_ms = target_latency_slo_ms(fleet, catalog);

  core::SimPoolBackend backend(&fleet, 0, 0);
  PipelineContext ctx;
  ctx.store = &fleet.store();
  ctx.server_days = fleet.server_day_cpu();
  ctx.backend = &backend;
  ctx.latency_slo_ms = result.latency_slo_ms;
  ctx.datacenter_count = fleet.config().datacenters.size();
  run_pipeline_steps(spec, ctx, result);

  compute_pool_assertion_metrics(fleet.store(), spec, result.metrics);
  evaluate_assertions(spec, result);
  return result;
}

ScenarioRunResult ScenarioRunner::replay(
    const ScenarioSpec& spec, const telemetry::MetricStore& trace,
    std::span<const sim::ServerDayCpu> server_days) const {
  ScenarioRunResult result;
  ReplaySetup setup(spec, result);
  core::LiveFeedBackend::Options feed_opt = setup.feed_options();
  feed_opt.sealed = true;  // a complete recording: reading past it throws
  feed_opt.label = "headroom replay";
  core::LiveFeedBackend backend(&trace, feed_opt);
  run_pipeline_steps(spec, setup.observe(trace, server_days, &backend, result),
                     result);
  evaluate_assertions(spec, result);
  return result;
}

std::string format_summary(const ScenarioRunResult& result) {
  const ScenarioSpec& spec = result.spec;
  std::string out;
  out += "scenario = " + spec.name + "\n";
  out += "seed = " + std::to_string(spec.seed) + "\n";
  out += "days = " + std::to_string(spec.days) + "\n";
  out += "window_seconds = " + std::to_string(spec.window_seconds) + "\n";
  std::string steps;
  for (const PipelineStep step : kPipelineSteps) {
    if (!spec.runs(step)) continue;
    if (!steps.empty()) steps += ',';
    steps += to_string(step);
  }
  out += "steps = " + steps + "\n";
  out += "fleet = " + std::string(to_string(spec.fleet)) + "\n";
  if (spec.fleet != FleetKind::kStandard) {
    out += "service = " + spec.service + "\n";
  }
  out += "events = " + std::to_string(spec.events.size()) + "\n";
  for (const auto& [name, value] : result.metrics) {
    out += "metric " + name + " = " + format_value(value) + "\n";
  }
  for (const AssertionOutcome& outcome : result.assertions) {
    out += "assert " + outcome.assertion.metric + " " +
           std::string(to_string(outcome.assertion.op)) + " " +
           format_value(outcome.assertion.value) + " : " +
           (outcome.pass ? "PASS" : "FAIL") + " (" +
           format_value(outcome.observed) + ")\n";
  }
  out += std::string("result = ") +
         (result.assertions_pass ? "PASS" : "FAIL") + "\n";
  return out;
}

}  // namespace headroom::scenario
