#include "scenario/pipeline_session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/metric_validator.h"
#include "core/pool_model.h"
#include "core/server_grouper.h"
#include "stats/percentile.h"
#include "telemetry/csv.h"
#include "workload/synthetic.h"

namespace headroom::scenario {

telemetry::SimTime hours_to_sim(double hours) noexcept {
  return static_cast<telemetry::SimTime>(std::llround(hours * 3600.0));
}

std::vector<ScenarioEvent> sorted_reductions(const ScenarioSpec& spec) {
  std::vector<ScenarioEvent> reductions;
  for (const ScenarioEvent& e : spec.events) {
    if (e.kind == ScenarioEventKind::kServingReduction) reductions.push_back(e);
  }
  std::stable_sort(reductions.begin(), reductions.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.start_hour < b.start_hour;
                   });
  return reductions;
}

std::vector<ScenarioEvent> checked_reductions(const sim::FleetSimulator& fleet,
                                              const ScenarioSpec& spec) {
  std::vector<ScenarioEvent> reductions = sorted_reductions(spec);
  for (const ScenarioEvent& e : reductions) {
    if (hours_to_sim(e.start_hour) >= spec.days * kDaySeconds) {
      throw std::invalid_argument("scenario: serving_reduction at hour " +
                                  telemetry::format_double(e.start_hour) +
                                  " is past the observation window");
    }
    const std::size_t pool_size = fleet.pool_size(*e.datacenter, *e.pool);
    if (e.serving > pool_size) {
      throw std::invalid_argument(
          "scenario: serving_reduction to " + std::to_string(e.serving) +
          " exceeds pool size " + std::to_string(pool_size));
    }
  }
  return reductions;
}

void observe_to_horizon(sim::FleetSimulator& fleet, const ScenarioSpec& spec) {
  for (const ScenarioEvent& e : checked_reductions(fleet, spec)) {
    fleet.run_until(hours_to_sim(e.start_hour));
    fleet.set_serving_count(*e.datacenter, *e.pool, e.serving);
  }
  fleet.run_until(spec.days * kDaySeconds);
  fleet.finish_day();
}

double dr_headroom_fraction(std::size_t datacenter_count) {
  return datacenter_count > 1 ? 1.0 / static_cast<double>(datacenter_count)
                              : 0.125;
}

double target_latency_slo_ms(const sim::FleetSimulator& fleet,
                             const sim::MicroserviceCatalog& catalog) {
  return catalog.by_name(fleet.config().datacenters[0].pools[0].service)
      .latency_slo_ms;
}

core::LiveFeedBackend::Options target_feed_options(
    const sim::FleetSimulator& fleet, telemetry::SimTime start,
    telemetry::SimTime window) {
  core::LiveFeedBackend::Options opt;
  opt.pool_size = fleet.pool_size(0, 0);
  opt.serving = fleet.serving_count(0, 0);
  opt.start = start;
  opt.window_seconds = window;
  return opt;
}

void compute_environment_metrics(const sim::FleetSimulator& fleet,
                                 const ScenarioSpec& spec,
                                 std::map<std::string, double>& metrics) {
  // Event-free baseline demand oracle the event metrics are measured
  // against. This is a pure function of the diurnal params and the DC
  // weights/timezones (exactly what FleetSimulator::regional_demands
  // computes when no event is active), so it needs no second simulator.
  const sim::FleetConfig& config = fleet.config();
  std::vector<workload::DiurnalTraffic> baseline_traffic;
  baseline_traffic.reserve(config.datacenters.size());
  for (const sim::DatacenterConfig& dc : config.datacenters) {
    workload::DiurnalParams params = config.diurnal;
    params.peak_rps = config.diurnal.peak_rps * dc.demand_weight;
    params.timezone_offset_hours = dc.timezone_offset_hours;
    baseline_traffic.emplace_back(params);
  }

  const telemetry::SimTime horizon = spec.days * kDaySeconds;

  metrics["datacenters"] = static_cast<double>(config.datacenters.size());
  metrics["total_pools"] = static_cast<double>(fleet.total_pools());
  metrics["total_servers"] = static_cast<double>(fleet.total_servers());
  metrics["serving_final"] = static_cast<double>(fleet.serving_count(0, 0));

  double max_ratio = 1.0;
  std::vector<double> survivor_max_ratio(config.datacenters.size(), 0.0);
  bool any_outage_window = false;
  for (telemetry::SimTime t = 0; t < horizon; t += spec.window_seconds) {
    bool any_down = false;
    for (std::uint32_t d = 0; d < config.datacenters.size(); ++d) {
      if (config.events.datacenter_down(t, d)) any_down = true;
    }
    for (std::uint32_t d = 0; d < config.datacenters.size(); ++d) {
      const double base = baseline_traffic[d].demand(t);
      if (base <= 1e-9) continue;
      const double ratio = fleet.datacenter_demand(t, d) / base;
      max_ratio = std::max(max_ratio, ratio);
      if (any_down && !config.events.datacenter_down(t, d)) {
        any_outage_window = true;
        survivor_max_ratio[d] = std::max(survivor_max_ratio[d], ratio);
      }
    }
  }
  metrics["max_traffic_ratio"] = max_ratio;
  double median_increase = 0.0;
  double max_increase = 0.0;
  if (any_outage_window) {
    std::vector<double> increases;
    for (const double ratio : survivor_max_ratio) {
      if (ratio > 0.0) increases.push_back((ratio - 1.0) * 100.0);
    }
    std::sort(increases.begin(), increases.end());
    if (!increases.empty()) {
      median_increase = increases[increases.size() / 2];
      max_increase = increases.back();
    }
  }
  metrics["median_survivor_increase_pct"] = median_increase;
  metrics["max_survivor_increase_pct"] = max_increase;
}

void evaluate_assertions(const ScenarioSpec& spec, ScenarioRunResult& result) {
  for (const ScenarioAssertion& assertion : spec.assertions) {
    AssertionOutcome outcome;
    outcome.assertion = assertion;
    const auto it = result.metrics.find(assertion.metric);
    if (it == result.metrics.end()) {
      outcome.observed = std::numeric_limits<double>::quiet_NaN();
      outcome.pass = false;
    } else {
      outcome.observed = it->second;
      outcome.pass = assertion.holds(it->second);
    }
    result.assertions_pass = result.assertions_pass && outcome.pass;
    result.assertions.push_back(outcome);
  }
}

void compute_pool_assertion_metrics(const telemetry::MetricStore& store,
                                    const ScenarioSpec& spec,
                                    std::map<std::string, double>& metrics) {
  using telemetry::MetricKind;
  const telemetry::SimTime horizon = spec.days * kDaySeconds;
  for (const ScenarioAssertion& assertion : spec.assertions) {
    std::string error;
    const std::optional<PoolMetricRef> ref =
        parse_pool_metric(assertion.metric, &error);
    if (!ref) continue;  // Flat registry metric; not ours to resolve.
    if (metrics.count(assertion.metric) != 0) continue;

    MetricKind kind = MetricKind::kRequestsPerSecond;
    enum class Agg { kPeak, kMean, kMin } agg = Agg::kPeak;
    if (ref->base == "peak_rps") {
      kind = MetricKind::kRequestsPerSecond;
    } else if (ref->base == "mean_rps") {
      kind = MetricKind::kRequestsPerSecond;
      agg = Agg::kMean;
    } else if (ref->base == "peak_cpu_pct") {
      kind = MetricKind::kCpuPercentAttributed;
    } else if (ref->base == "mean_cpu_pct") {
      kind = MetricKind::kCpuPercentAttributed;
      agg = Agg::kMean;
    } else if (ref->base == "peak_p95_ms") {
      kind = MetricKind::kLatencyP95Ms;
    } else if (ref->base == "mean_p95_ms") {
      kind = MetricKind::kLatencyP95Ms;
      agg = Agg::kMean;
    } else if (ref->base == "max_active_servers") {
      kind = MetricKind::kActiveServers;
    } else if (ref->base == "min_active_servers") {
      kind = MetricKind::kActiveServers;
      agg = Agg::kMin;
    } else {
      continue;  // validate() already rejected unknown bases.
    }

    const std::span<const double> values =
        store.pool_series(ref->datacenter, ref->pool, kind)
            .values_between(0, horizon);
    // A pool with no observation-phase samples stays unresolved and the
    // assertion fails as NaN, exactly like any other missing metric.
    if (values.empty()) continue;
    double out = values[0];
    if (agg == Agg::kMean) {
      double sum = 0.0;
      for (const double v : values) sum += v;
      out = sum / static_cast<double>(values.size());
    } else if (agg == Agg::kPeak) {
      for (const double v : values) out = std::max(out, v);
    } else {
      for (const double v : values) out = std::min(out, v);
    }
    metrics[assertion.metric] = out;
  }
}

telemetry::MetricStore truncate_store(const telemetry::MetricStore& full,
                                      telemetry::SimTime end) {
  telemetry::MetricStore out;
  telemetry::MetricBuffer buffer;
  for (const telemetry::SeriesKey& key : full.keys()) {
    const telemetry::SeriesView view =
        full.series(key).slice(std::numeric_limits<telemetry::SimTime>::min(),
                               end);
    for (std::size_t i = 0; i < view.size(); ++i) {
      buffer.record(key, view.time_at(i), view.value_at(i));
    }
    out.merge(buffer);
    buffer.clear();
  }
  return out;
}

ReplaySetup::ReplaySetup(const ScenarioSpec& spec, ScenarioRunResult& result)
    : spec_(spec),
      fleet_(ScenarioRunner::build_fleet(spec, catalog_), catalog_),
      experiment_start_((spec.days * kDaySeconds + spec.window_seconds - 1) /
                        spec.window_seconds * spec.window_seconds) {
  result.spec = spec;
  result.thread_count = fleet_.thread_count();
  for (const ScenarioEvent& e : checked_reductions(fleet_, spec)) {
    fleet_.set_serving_count(*e.datacenter, *e.pool, e.serving);
  }
  compute_environment_metrics(fleet_, spec, result.metrics);
  result.latency_slo_ms = target_latency_slo_ms(fleet_, catalog_);
}

core::LiveFeedBackend::Options ReplaySetup::feed_options() const {
  return target_feed_options(fleet_, experiment_start_, spec_.window_seconds);
}

PipelineContext ReplaySetup::observe(
    const telemetry::MetricStore& recording,
    std::span<const sim::ServerDayCpu> server_days,
    core::PoolExperimentBackend* backend, ScenarioRunResult& result) {
  observation_ = truncate_store(recording, spec_.days * kDaySeconds);
  compute_pool_assertion_metrics(observation_, spec_, result.metrics);
  server_days_.clear();
  for (const sim::ServerDayCpu& day : server_days) {
    if (day.day < spec_.days) server_days_.push_back(day);
  }
  PipelineContext ctx;
  ctx.store = &observation_;
  ctx.server_days = server_days_;
  ctx.backend = backend;
  ctx.latency_slo_ms = result.latency_slo_ms;
  ctx.datacenter_count = fleet_.config().datacenters.size();
  return ctx;
}

PipelineSession::PipelineSession(const ScenarioSpec& spec, PipelineContext ctx)
    : spec_(spec), ctx_(ctx) {
  if (ctx_.store == nullptr) {
    throw std::invalid_argument("PipelineSession: null store");
  }
  if (ctx_.backend == nullptr) {
    throw std::invalid_argument("PipelineSession: null backend");
  }
}

void PipelineSession::run_measure_and_plan(ScenarioRunResult& result) {
  using telemetry::MetricKind;
  const telemetry::MetricStore& store = *ctx_.store;

  // --- Step 1: Measure ------------------------------------------------------
  if (spec_.runs(PipelineStep::kMeasure)) {
    const core::MetricValidator validator;
    const MetricKind resources[] = {MetricKind::kCpuPercentAttributed,
                                    MetricKind::kNetworkBytesPerSecond,
                                    MetricKind::kMemoryPagesPerSecond,
                                    MetricKind::kDiskQueueLength};
    result.assessments = validator.assess_all(
        store, 0, 0, MetricKind::kRequestsPerSecond, resources);
    result.metric_valid = validator.workload_metric_valid(result.assessments);
    result.metrics["metric_valid"] = result.metric_valid ? 1.0 : 0.0;
    const auto limiting = validator.limiting_resource(result.assessments);
    result.metrics["limiting_r2"] = limiting ? limiting->fit.r_squared : 0.0;

    std::int64_t last_day = 0;
    for (const auto& day : ctx_.server_days) {
      if (day.datacenter == 0 && day.pool == 0) {
        last_day = std::max(last_day, day.day);
      }
    }
    const auto snapshots = core::ServerGrouper::pool_snapshots(
        ctx_.server_days, 0, 0, last_day);
    result.grouping = core::ServerGrouper().group_servers(snapshots);
    result.metrics["server_groups"] =
        static_cast<double>(result.grouping.group_count);
    result.metrics["multimodal"] = result.grouping.multimodal() ? 1.0 : 0.0;
  }

  // --- Step 2a: Optimize — the headroom plan -------------------------------
  if (spec_.runs(PipelineStep::kOptimize)) {
    const auto model = core::PoolResponseModel::fit(
        store.pool_scatter(0, 0, MetricKind::kRequestsPerSecond,
                           MetricKind::kCpuPercentAttributed),
        store.pool_scatter(0, 0, MetricKind::kRequestsPerSecond,
                           MetricKind::kLatencyP95Ms));
    const auto rps =
        store.pool_series(0, 0, MetricKind::kRequestsPerSecond).values();
    const double p95_rps = stats::percentile(rps, 95.0);
    core::HeadroomPolicy policy;
    policy.qos.latency.p95_ms = ctx_.latency_slo_ms;
    policy.dr_headroom_fraction = dr_headroom_fraction(ctx_.datacenter_count);
    const std::size_t current = ctx_.backend->serving_count();
    result.plan =
        core::HeadroomOptimizer(policy).plan(model, p95_rps, current);
    result.metrics["plan_current"] =
        static_cast<double>(result.plan.current_servers);
    result.metrics["plan_recommended"] =
        static_cast<double>(result.plan.recommended_servers);
    result.metrics["plan_savings_pct"] =
        result.plan.efficiency_savings() * 100.0;
    result.metrics["plan_stressed_latency_ms"] =
        result.plan.predicted_latency_stressed_ms;
  }
}

void PipelineSession::start_rsm(const core::ExperimentObservations* seed) {
  if (rsm_started_) {
    throw std::logic_error("PipelineSession::start_rsm: already started");
  }
  rsm_started_ = true;
  if (!spec_.runs(PipelineStep::kOptimize)) return;

  // --- Step 2b: Optimize — the RSM reduction experiment ---------------------
  core::RsmOptions rsm;
  rsm.latency_slo_ms = ctx_.latency_slo_ms;
  rsm.baseline_duration = kDaySeconds;
  rsm.iteration_duration = kDaySeconds;
  rsm.max_iterations = 4;
  rsm_.emplace(rsm, ctx_.backend);
  if (seed != nullptr) rsm_->seed_baseline(*seed);
}

bool PipelineSession::advance_rsm() {
  if (!rsm_started_) {
    throw std::logic_error("PipelineSession::advance_rsm: not started");
  }
  if (!rsm_) return true;
  return rsm_->advance();
}

void PipelineSession::abort_rsm_failsafe() {
  if (rsm_ && !rsm_->done()) rsm_->abort_failsafe();
}

void PipelineSession::finalize(ScenarioRunResult& result) {
  if (!rsm_started_ || (rsm_ && !rsm_->done())) {
    throw std::logic_error(
        "PipelineSession::finalize: RSM experiment not complete");
  }
  if (rsm_) {
    const bool failsafe = rsm_->aborted();
    result.rsm = rsm_->take_result();
    result.metrics["rsm_start"] =
        static_cast<double>(result.rsm.starting_serving);
    result.metrics["rsm_recommended"] =
        static_cast<double>(result.rsm.recommended_serving);
    result.metrics["rsm_reduction_pct"] =
        result.rsm.reduction_fraction() * 100.0;
    result.metrics["rsm_iterations"] =
        static_cast<double>(result.rsm.iterations.size());
    result.metrics["rsm_slo_limited"] =
        result.rsm.slo_limit_reached ? 1.0 : 0.0;
    // Emitted only on failsafe abort so fault-free summaries (and every
    // existing golden) are byte-identical to runs built before the
    // degradation layer existed.
    if (failsafe) result.metrics["rsm_failsafe"] = 1.0;
  }

  // --- Step 3: Model --------------------------------------------------------
  std::optional<workload::SyntheticWorkload> fitted;
  if (spec_.runs(PipelineStep::kModel) ||
      spec_.runs(PipelineStep::kValidate)) {
    workload::RequestType fetch;
    fetch.weight = 0.75;
    fetch.cost_mean = 1.0;
    fetch.cost_sigma = 0.25;
    workload::RequestType render;
    render.weight = 0.25;
    render.cost_mean = 3.2;
    render.cost_sigma = 0.4;
    render.dependency_latency_ms = 12.0;
    const workload::SyntheticWorkload production{
        workload::RequestMix({fetch, render})};
    const auto observed = production.generate(500.0, 120.0, spec_.seed + 6);
    fitted = workload::SyntheticWorkload::fit(observed, 2);
    if (spec_.runs(PipelineStep::kModel)) {
      const auto replay = fitted->generate(500.0, 120.0, spec_.seed + 8);
      result.model_cmp =
          workload::SyntheticWorkload::compare(replay, observed, 2);
      result.metrics["model_equivalent"] =
          result.model_cmp.equivalent ? 1.0 : 0.0;
      result.metrics["model_type_distance"] = result.model_cmp.type_distance;
    }
  }

  // --- Step 4: Validate -----------------------------------------------------
  if (spec_.runs(PipelineStep::kValidate) && fitted) {
    sim::RequestSimConfig pool;
    pool.servers = 4;
    pool.cores = 8.0;
    pool.base_service_ms = 4.0;
    pool.window_seconds = 10;
    sim::RequestSimConfig candidate = pool;
    candidate.defect.service_factor = 1.18;

    core::GateOptions gate_opt;
    gate_opt.nominal_rps_per_server = 500.0;
    gate_opt.step_duration_s = 20.0;
    result.gate =
        core::RegressionGate(gate_opt).evaluate(pool, candidate, *fitted);
    result.metrics["gate_blocked"] = result.gate.pass ? 0.0 : 1.0;
    result.metrics["gate_max_clean_rps"] = result.gate.max_clean_rps;
  }
}

}  // namespace headroom::scenario
