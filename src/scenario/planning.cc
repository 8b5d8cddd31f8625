#include "scenario/planning.h"

#include <algorithm>
#include <stdexcept>

#include "query/query_engine.h"
#include "scenario/pipeline_session.h"
#include "scenario/scenario_runner.h"
#include "scenario/trace.h"
#include "sim/failover.h"
#include "sim/fleet.h"
#include "telemetry/csv.h"

namespace headroom::scenario {

namespace {

/// Default policy sweep: every implemented failover world.
std::vector<sim::FailoverPolicyKind> default_policies() {
  return {sim::FailoverPolicyKind::kNearestSurvivor,
          sim::FailoverPolicyKind::kLatencyAware,
          sim::FailoverPolicyKind::kCostAware};
}

/// Distinct outage-event target DCs of the spec's timeline, sorted. An
/// outage event without a datacenter (all-DC) contributes nothing: there
/// are no survivors to stress.
std::vector<std::uint32_t> outage_targets(const ScenarioSpec& spec) {
  std::vector<std::uint32_t> out;
  for (const ScenarioEvent& e : spec.events) {
    if (e.kind != ScenarioEventKind::kDatacenterOutage || !e.datacenter) {
      continue;
    }
    out.push_back(*e.datacenter);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Per-DC stress multipliers for "DC f permanently dark under policy P":
/// seeds the policy's redistribution with the DCs' demand weights (regional
/// demand is weight-proportional), so survivor s comes back as
/// weight_s + share(f->s) * weight_f, i.e. multiplier = after / weight.
std::vector<PlanStress> outage_stresses(
    const std::vector<sim::DatacenterConfig>& datacenters,
    sim::FailoverPolicyKind policy, std::uint32_t failed) {
  const std::size_t n = datacenters.size();
  std::vector<double> demand(n, 0.0);
  std::vector<std::uint8_t> down(n, 0);
  for (std::size_t d = 0; d < n; ++d) demand[d] = datacenters[d].demand_weight;
  down[failed] = 1;
  const auto impl = sim::make_failover_policy(policy, datacenters);
  impl->redistribute(down, demand);

  std::vector<PlanStress> stresses;
  for (std::size_t d = 0; d < n; ++d) {
    if (d == failed) continue;
    const double weight = datacenters[d].demand_weight;
    if (weight <= 0.0) continue;
    const double multiplier = demand[d] / weight;
    if (multiplier == 1.0) continue;  // untouched survivor
    stresses.push_back({static_cast<std::uint32_t>(d), multiplier});
  }
  return stresses;
}

/// The sweep and forecasts shared by scenario and trace mode: everything
/// downstream of the telemetry store.
void forecast_cases(const sim::FleetConfig& config,
                    const sim::MicroserviceCatalog& catalog,
                    const telemetry::MetricStore& store, PlanResult& result) {
  const query::QueryEngine engine(&store);
  const ScenarioSpec& spec = result.spec;
  const PlanOptions& options = result.options;

  result.datacenters = config.datacenters.size();
  result.outage_datacenters = outage_targets(spec);
  for (const sim::DatacenterConfig& dc : config.datacenters) {
    result.total_pools += dc.pools.size();
  }

  std::vector<double> growths = options.growths;
  std::sort(growths.begin(), growths.end());
  growths.erase(std::unique(growths.begin(), growths.end()), growths.end());
  if (growths.empty()) growths.push_back(1.0);
  const std::vector<sim::FailoverPolicyKind> policies =
      options.policies.empty() ? default_policies() : options.policies;

  // Case order is the report order: growth-major, then policy, then the
  // baseline (no outage) before each outage target.
  for (const double growth : growths) {
    for (const sim::FailoverPolicyKind policy : policies) {
      for (std::size_t c = 0; c <= result.outage_datacenters.size(); ++c) {
        PlanCase plan_case;
        plan_case.growth = growth;
        plan_case.policy = policy;
        if (c > 0) {
          plan_case.has_outage = true;
          plan_case.outage_datacenter = result.outage_datacenters[c - 1];
          plan_case.stresses = outage_stresses(
              config.datacenters, policy, plan_case.outage_datacenter);
        }

        for (std::uint32_t d = 0; d < config.datacenters.size(); ++d) {
          if (plan_case.has_outage && d == plan_case.outage_datacenter) {
            continue;  // the dark DC's pools drop out of this case
          }
          double stress = 1.0;
          for (const PlanStress& s : plan_case.stresses) {
            if (s.datacenter == d) stress = s.multiplier;
          }
          const sim::DatacenterConfig& dc = config.datacenters[d];
          for (std::uint32_t p = 0; p < dc.pools.size(); ++p) {
            core::CapacityForecastOptions fopt;
            fopt.window_seconds = spec.window_seconds;
            fopt.horizon_seconds = options.horizon_seconds;
            fopt.critical_seconds =
                std::min<telemetry::SimTime>(30 * 86400,
                                             options.horizon_seconds);
            fopt.growth_multiplier = growth * stress;
            const core::CapacityForecaster forecaster(&engine, fopt);
            core::CapacityForecaster::PoolSpec pool_spec;
            pool_spec.datacenter = d;
            pool_spec.pool = p;
            pool_spec.servers = dc.pools[p].servers;
            pool_spec.target_rps_per_server =
                catalog.by_name(dc.pools[p].service).target_rps_per_server_p95;
            plan_case.pools.push_back(
                forecaster.forecast_pool(pool_spec, 0, result.history_end));
          }
        }
        result.cases.push_back(std::move(plan_case));
      }
    }
  }
  if (!result.cases.empty() && !result.cases.front().pools.empty()) {
    result.windows = result.cases.front().pools.front().windows_observed;
  }
}

void check_plannable(const ScenarioSpec& spec) {
  const std::string problem = validate(spec);
  if (!problem.empty()) {
    throw std::invalid_argument("plan: " + problem);
  }
  if (spec.quiescent_dead_band > 0.0) {
    throw std::invalid_argument(
        "plan: scenario '" + spec.name +
        "' uses a quiescent dead band (approximate stepping); its plan "
        "report is not golden-pinnable");
  }
}

void check_options(const PlanOptions& options) {
  if (options.horizon_seconds <= 0) {
    throw std::invalid_argument("plan: horizon must be positive");
  }
  for (const double g : options.growths) {
    if (g <= 0.0) {
      throw std::invalid_argument("plan: growth multipliers must be positive");
    }
  }
}

}  // namespace

PlanResult run_plan(const ScenarioSpec& spec, const PlanOptions& options) {
  check_plannable(spec);
  check_options(options);

  PlanResult result;
  result.spec = spec;
  result.options = options;
  result.source = "scenario";
  result.history_end = spec.days * kDaySeconds;

  // Observation phase, exactly as `headroom run` executes it.
  const sim::MicroserviceCatalog catalog;
  sim::FleetConfig config = ScenarioRunner::build_fleet(spec, catalog);
  sim::FleetSimulator fleet(std::move(config), catalog);
  result.thread_count = fleet.thread_count();
  observe_to_horizon(fleet, spec);

  forecast_cases(fleet.config(), catalog, fleet.store(), result);
  return result;
}

PlanResult run_plan_on_trace(const std::string& dir,
                             const PlanOptions& options) {
  check_options(options);
  TraceFeedInfo info;
  std::string problem = load_trace_feed(dir, &info);
  if (!problem.empty()) {
    throw std::runtime_error(problem);
  }
  check_plannable(info.spec);

  PlanResult result;
  result.spec = info.spec;
  result.options = options;
  result.source = "trace";
  result.history_end = info.spec.days * kDaySeconds;

  telemetry::MetricStore store;
  problem = read_trace_pools(info, &store);
  if (!problem.empty()) {
    throw std::runtime_error(problem);
  }

  const sim::MicroserviceCatalog catalog;
  const sim::FleetConfig config =
      ScenarioRunner::build_fleet(info.spec, catalog);
  forecast_cases(config, catalog, store, result);
  return result;
}

std::string format_plan(const PlanResult& result) {
  const auto fmt = [](double v) { return telemetry::format_double(v); };
  std::string out;
  out += "plan = " + result.spec.name + "\n";
  out += "source = " + result.source + "\n";
  out += "seed = " + std::to_string(result.spec.seed) + "\n";
  out += "days = " + std::to_string(result.spec.days) + "\n";
  out += "window_seconds = " + std::to_string(result.spec.window_seconds) +
         "\n";
  out += "windows = " + std::to_string(result.windows) + "\n";
  out += "horizon_seconds = " +
         std::to_string(result.options.horizon_seconds) + "\n";
  out += "failover = " + sim::to_string(result.spec.failover) + "\n";
  out += "datacenters = " + std::to_string(result.datacenters) + "\n";
  out += "pools = " + std::to_string(result.total_pools) + "\n";
  out += "outage_cases = " + std::to_string(result.outage_datacenters.size()) +
         "\n";
  out += "cases = " + std::to_string(result.cases.size()) + "\n";
  for (const PlanCase& c : result.cases) {
    out += "case growth = " + fmt(c.growth);
    out += " failover = " + sim::to_string(c.policy);
    out += " outage = ";
    out += c.has_outage ? std::to_string(c.outage_datacenter) : "none";
    out += " pools = " + std::to_string(c.pools.size());
    out += "\n";
    for (const PlanStress& s : c.stresses) {
      out += "stress dc=" + std::to_string(s.datacenter) +
             " multiplier = " + fmt(s.multiplier) + "\n";
    }
    out += core::format_capacity_forecasts(c.pools);
  }
  return out;
}

}  // namespace headroom::scenario
