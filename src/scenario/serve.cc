#include "scenario/serve.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/degradation.h"
#include "core/live_feed_backend.h"
#include "core/rolling_plan.h"
#include "query/query_engine.h"
#include "scenario/fault.h"
#include "scenario/pipeline_session.h"
#include "scenario/trace.h"
#include "telemetry/csv.h"

namespace headroom::scenario {

namespace {

using telemetry::MetricKind;
using telemetry::SimTime;

/// One pool's rolling-report state: the O(1)-per-window planner plus the
/// identity the report lines carry. pool_size / last_serving / last_plan
/// back the degraded path — a dark window reports the held plan (or the
/// whole pool in FAILSAFE) instead of going silent.
struct PoolStream {
  std::uint32_t dc = 0;
  std::uint32_t pool = 0;
  core::RollingPoolPlanner planner;
  std::size_t pool_size = 0;
  long long last_serving = 0;
  std::optional<core::HeadroomPlan> last_plan;
};

/// One rolling planner per configured pool, each sized against its own
/// service's SLO — the same policy shape the pipeline's plan step uses.
[[nodiscard]] std::vector<PoolStream> build_streams(
    const sim::FleetConfig& config, const sim::MicroserviceCatalog& catalog,
    const ServeOptions& options) {
  core::RollingPoolPlanner::Options ropt;
  ropt.lookback_windows = options.rolling_lookback_windows;
  ropt.min_windows = options.rolling_min_windows;
  const std::size_t dc_count = config.datacenters.size();
  std::vector<PoolStream> streams;
  for (std::uint32_t d = 0; d < dc_count; ++d) {
    const sim::DatacenterConfig& dc = config.datacenters[d];
    for (std::uint32_t p = 0; p < dc.pools.size(); ++p) {
      core::HeadroomPolicy policy;
      policy.qos.latency.p95_ms =
          catalog.by_name(dc.pools[p].service).latency_slo_ms;
      policy.dr_headroom_fraction = dr_headroom_fraction(dc_count);
      streams.push_back({d, p, core::RollingPoolPlanner(policy, ropt),
                         dc.pools[p].servers, 0, std::nullopt});
    }
  }
  return streams;
}

/// Emits one report line per pool for the window starting at `t`, feeding
/// each pool's rolling planner along the way. Without a health monitor,
/// pools with no sample at `t` (dark the whole window) are skipped and the
/// line format is exactly the pre-degradation one. With a monitor, every
/// line carries the pool's health mode and tallies, healed windows are
/// discounted by the planner, and a dark pool still reports — holding its
/// last plan, or the whole pool once FAILSAFE. Reads go through the query
/// layer: raw windows come back bit-identical (report lines are
/// golden-pinned). The window at `t` is always resident: scenario serve
/// reports the newest window, and follow mode's eviction floor holds the
/// report cursor.
void emit_window_reports(const telemetry::MetricStore& store,
                         std::vector<PoolStream>& streams, SimTime t,
                         const char* phase, const EmitFn& emit,
                         std::size_t* reports,
                         const core::HealthMonitor* monitor = nullptr) {
  const query::QueryEngine engine(&store);
  for (PoolStream& s : streams) {
    const auto value_at = [&](MetricKind kind, double* out) {
      const std::optional<double> v = engine.window_value(
          {s.dc, s.pool, telemetry::SeriesKey::kPoolScope, kind}, t);
      if (!v) return false;
      *out = *v;
      return true;
    };
    double rps = 0.0;
    double cpu = 0.0;
    double latency = 0.0;
    double active = 0.0;
    const bool lit = value_at(MetricKind::kRequestsPerSecond, &rps) &&
                     value_at(MetricKind::kCpuPercentAttributed, &cpu) &&
                     value_at(MetricKind::kLatencyP95Ms, &latency) &&
                     value_at(MetricKind::kActiveServers, &active);
    const core::DegradationTracker* health =
        monitor != nullptr ? monitor->find(s.dc, s.pool) : nullptr;
    if (!lit && health == nullptr) continue;
    std::string line;
    line += "window t=" + std::to_string(t);
    line += " dc=" + std::to_string(s.dc);
    line += " pool=" + std::to_string(s.pool);
    line += " phase=";
    line += phase;
    if (lit) {
      s.planner.add_window(rps, cpu, latency,
                           health != nullptr && health->window_healed(t));
      const auto serving = static_cast<long long>(active);
      s.last_serving = serving;
      line += " rps=" + telemetry::format_double(rps);
      line += " cpu_pct=" + telemetry::format_double(cpu);
      line += " p95_ms=" + telemetry::format_double(latency);
      line += " serving=" + std::to_string(serving);
      const std::optional<core::HeadroomPlan> plan =
          s.planner.plan(serving > 0 ? static_cast<std::size_t>(serving) : 0);
      if (plan) {
        line += " plan=" + std::to_string(plan->recommended_servers);
        s.last_plan = plan;
      }
    } else {
      // Dark window: the feed delivered nothing for this pool. On stale
      // data capacity is never shrunk — hold the last-known-good plan,
      // and once the staleness budget is gone, fail safe to the full
      // pool (the paper's worst-case headroom posture).
      line += " dark=1 serving=" + std::to_string(s.last_serving);
      if (health->mode() == core::HealthMode::kFailsafe) {
        line += " plan=" + std::to_string(s.pool_size);
      } else if (s.last_plan) {
        line += " plan=" + std::to_string(s.last_plan->recommended_servers);
      }
    }
    if (health != nullptr) {
      line += " mode=";
      line += core::to_string(health->mode());
      line += " healed=" + std::to_string(health->counters().healed);
      line += " quarantined=" +
              std::to_string(health->counters().quarantined_total());
    }
    ++*reports;
    if (emit) emit(line);
  }
}

/// Reads the exact sample recorded at `t`, if any.
[[nodiscard]] bool sample_at(const telemetry::TimeSeries& series, SimTime t,
                             double* out) {
  const std::size_t i = series.first_index_at_or_after(t);
  if (i >= series.size() || series.time_at(i) != t) return false;
  *out = series.value_at(i);
  return true;
}

/// The source store's series in canonical key order, kept across windows.
/// Series are never erased outside MetricStore::clear(), so an unchanged
/// series_count() means an unchanged key set, and the cached series stay
/// valid (map nodes are stable).
struct SourceIndex {
  std::vector<telemetry::SeriesKey> keys;
  std::vector<const telemetry::TimeSeries*> series;

  void refresh(const telemetry::MetricStore& source) {
    if (keys.size() == source.series_count()) return;
    keys = source.keys();
    series.clear();
    for (const telemetry::SeriesKey& key : keys) {
      series.push_back(&source.series(key));
    }
  }
};

/// Routes one grid window of true samples from `source` through the fault
/// injector into the health monitor, which sanitizes and writes the
/// delivered store. Each pool's samples take the fault surface together —
/// the faults model the pool aggregation pipeline, and the monitor's grid
/// accounting is per pool. Keys are walked in the store's canonical sorted
/// order, so the delivery stream is deterministic at any thread count.
void deliver_window(const telemetry::MetricStore& source, SourceIndex& index,
                    SimTime t, FaultInjector& injector,
                    core::HealthMonitor& monitor) {
  index.refresh(source);
  const std::vector<telemetry::SeriesKey>& keys = index.keys;
  std::vector<DeliveredSample> samples;
  std::size_t i = 0;
  while (i < keys.size()) {
    const std::uint32_t dc = keys[i].datacenter;
    const std::uint32_t pool = keys[i].pool;
    samples.clear();
    while (i < keys.size() && keys[i].datacenter == dc &&
           keys[i].pool == pool) {
      double v = 0.0;
      if (sample_at(*index.series[i], t, &v)) {
        samples.push_back({keys[i], t, v});
      }
      ++i;
    }
    injector.deliver(dc, pool, t, &samples);
    for (const DeliveredSample& sample : samples) {
      monitor.ingest(sample.key, sample.time, sample.value);
    }
  }
}

/// The retention floor a live RSM session needs: every observation it
/// requests spans one day of windows, and the sweep must never evict the
/// head of a span that is still filling. Below this, try_observe would
/// starve forever.
[[nodiscard]] SimTime clamp_retention(SimTime requested, SimTime window) {
  if (requested <= 0) return 0;  // unbounded
  return std::max(requested, kDaySeconds + window);
}

/// Parses a double accepting the non-finite spellings strtod does ("nan",
/// "inf") — the follow tailer lets those through so the health monitor
/// can quarantine them instead of the reader dying on them.
[[nodiscard]] bool parse_any_double(const std::string& field, double* out) {
  if (field.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (end != field.c_str() + field.size()) return false;
  *out = v;
  return true;
}

/// Incremental reader of one growing pool CSV: remembers the byte offset
/// reached, reads only complete new lines each poll (a partial trailing
/// line is carried to the next poll), and routes each row sample by sample
/// through a HealthMonitor, which quarantines duplicated, reordered and
/// non-finite values. Rows that do not even parse are counted per pool
/// (note_malformed_row) and skipped. Header errors are fatal, with a
/// `path:line` diagnostic — a wrong schema is a misconfiguration, not
/// line noise.
class CsvTailReader {
 public:
  CsvTailReader(std::string path, std::uint32_t datacenter, std::uint32_t pool,
                core::HealthMonitor* monitor)
      : path_(std::move(path)), datacenter_(datacenter), pool_(pool),
        monitor_(monitor) {}

  /// Reads newly appended complete rows through the monitor. Returns rows
  /// handed on; 0 when the file is absent or has not grown. A file that
  /// was readable before but fails to open now counts an IO retry and
  /// reads as idle — the next poll is the retry, bounded by the caller's
  /// idle watchdog.
  std::size_t poll() {
    std::ifstream in(path_, std::ios::binary);
    if (!in) {
      if (offset_ > 0) monitor_->note_io_retry(datacenter_, pool_);
      return 0;  // not written yet (or transiently unreadable) — idle
    }
    in.seekg(offset_);
    std::ostringstream chunk_stream;
    chunk_stream << in.rdbuf();
    const std::string chunk = chunk_stream.str();
    if (chunk.empty()) return 0;
    offset_ += static_cast<std::streamoff>(chunk.size());
    partial_ += chunk;

    std::size_t rows = 0;
    std::size_t begin = 0;
    while (true) {
      const std::size_t nl = partial_.find('\n', begin);
      if (nl == std::string::npos) break;
      std::string line = partial_.substr(begin, nl - begin);
      begin = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      ++line_no_;
      consume_line(line, &rows);
    }
    partial_.erase(0, begin);
    return rows;
  }

 private:
  void consume_line(const std::string& line, std::size_t* rows) {
    if (keys_.empty()) {
      const std::string problem = telemetry::parse_pool_csv_header(
          line, path_, line_no_, datacenter_, pool_, &keys_);
      if (!problem.empty()) throw std::runtime_error(problem);
      return;
    }
    if (line.empty()) return;  // tolerate blank lines, like read_pool_csv
    const std::vector<std::string> fields =
        telemetry::split_csv_fields(line, ',');
    SimTime t = 0;
    if (fields.size() != keys_.size() + 1 ||
        !telemetry::parse_int64(fields[0], &t)) {
      monitor_->note_malformed_row(datacenter_, pool_);
      return;
    }
    // Parse the whole row before handing any of it on, so a malformed
    // field never leaves a half-ingested window behind.
    row_values_.clear();
    for (std::size_t c = 0; c < keys_.size(); ++c) {
      double v = 0.0;
      if (!parse_any_double(fields[c + 1], &v)) {
        monitor_->note_malformed_row(datacenter_, pool_);
        return;
      }
      row_values_.push_back(v);
    }
    for (std::size_t c = 0; c < keys_.size(); ++c) {
      monitor_->ingest(keys_[c], t, row_values_[c]);
    }
    ++*rows;
  }

  std::string path_;
  std::uint32_t datacenter_;
  std::uint32_t pool_;
  core::HealthMonitor* monitor_;
  std::streamoff offset_ = 0;
  std::string partial_;
  std::vector<telemetry::SeriesKey> keys_;
  std::vector<double> row_values_;
  std::size_t line_no_ = 0;
};

/// End (exclusive) of the target pool's workload feed: last window start
/// plus one window; 0 before any workload arrives.
[[nodiscard]] SimTime target_feed_end(const telemetry::MetricStore& store,
                                      SimTime window) {
  const telemetry::TimeSeries& rps =
      store.pool_series(0, 0, MetricKind::kRequestsPerSecond);
  if (rps.empty()) return 0;
  return rps.time_at(rps.size() - 1) + window;
}

/// The health monitor's window grid and budgets, shared by serve and follow.
[[nodiscard]] core::DegradationOptions degradation_options(
    SimTime window, const ServeOptions& options) {
  core::DegradationOptions dopt;
  dopt.window_seconds = window;
  dopt.heal_budget_seconds = options.heal_budget_seconds;
  dopt.staleness_budget_seconds = options.staleness_budget_seconds;
  return dopt;
}

/// Starts the session's RSM experiment at `start`. With
/// reuse_observation_baseline, its baseline is the last day of `store`
/// before `start` instead of a day of feed still to come.
void start_rsm(PipelineSession& session, const ScenarioSpec& spec,
               const telemetry::MetricStore& store, SimTime start,
               const ServeOptions& options) {
  if (options.reuse_observation_baseline &&
      spec.runs(PipelineStep::kOptimize)) {
    const core::ExperimentObservations seed =
        core::observations_between(store, 0, 0, start - kDaySeconds, start);
    session.start_rsm(&seed);
  } else {
    session.start_rsm();
  }
}

/// Fills the result's closing fields from the store serve read its
/// telemetry into (and the health monitor, when one ran), and emits the
/// done line at `t`.
void finish(ServeResult& out, const telemetry::MetricStore& store,
            const core::HealthMonitor* health, SimTime t, const EmitFn& emit) {
  out.summary = format_summary(out.result);
  out.resident_samples = store.sample_count();
  out.evicted_samples = store.evicted_samples();
  if (health != nullptr) {
    out.health_active = true;
    out.degraded = health->any_degraded();
    out.health_report = health->format_report();
  }
  if (emit) {
    emit("serve phase=done t=" + std::to_string(t) +
         " windows=" + std::to_string(out.windows) + " rsm_recommended=" +
         std::to_string(out.result.rsm.recommended_serving));
  }
}

}  // namespace

ServeRunner::ServeRunner(ServeOptions options) : options_(options) {}

ServeResult ServeRunner::serve(const ScenarioSpec& spec,
                               const EmitFn& emit) const {
  const sim::MicroserviceCatalog catalog;
  sim::FleetConfig config = ScenarioRunner::build_fleet(spec, catalog);
  sim::FleetSimulator fleet(std::move(config), catalog);

  ServeResult out;
  out.result.spec = spec;
  out.result.thread_count = fleet.thread_count();

  const SimTime window = spec.window_seconds;
  const SimTime horizon = spec.days * kDaySeconds;
  const std::vector<ScenarioEvent> reductions = checked_reductions(fleet, spec);

  std::vector<PoolStream> streams =
      build_streams(fleet.config(), catalog, options_);

  // --- Degraded-input delivery layer ---------------------------------------
  // Active only when the spec injects faults (or --harden opts in). The
  // fault-free un-hardened path never touches it, which is what keeps
  // every pre-existing golden byte-identical. When active, the pipeline
  // reads the *delivered* store the monitor writes, never the simulator's
  // ground truth.
  const bool health_active = !spec.faults.empty() || options_.harden;
  telemetry::MetricStore delivered;
  std::optional<FaultInjector> injector;
  std::optional<core::HealthMonitor> health_monitor;
  if (health_active) {
    injector.emplace(spec);
    health_monitor.emplace(&delivered, degradation_options(window, options_));
    const sim::FleetConfig& fleet_config = fleet.config();
    for (std::uint32_t d = 0; d < fleet_config.datacenters.size(); ++d) {
      for (std::uint32_t p = 0;
           p < fleet_config.datacenters[d].pools.size(); ++p) {
        health_monitor->add_pool(d, p);
      }
    }
  }
  core::HealthMonitor* health =
      health_monitor ? &*health_monitor : nullptr;
  const telemetry::MetricStore& read_store =
      health_active ? delivered : fleet.store();
  SourceIndex source_index;

  // One feed window: step the fleet, route the window through the health
  // layer when it is active, and report every pool.
  const auto step_window = [&](const char* phase) {
    const SimTime t = fleet.now();
    fleet.run_until(t + window);
    if (health != nullptr) {
      deliver_window(fleet.store(), source_index, t, *injector, *health);
      health->advance(t + window);
    }
    ++out.windows;
    emit_window_reports(read_store, streams, t, phase, emit, &out.reports,
                        health);
  };

  if (emit) {
    emit("serve phase=observe t=0 horizon=" + std::to_string(horizon));
  }

  // --- Observation phase, one window at a time ----------------------------
  // A reduction lands at the first window boundary at or after its start
  // hour — exactly where the batch path's run_until(at) pauses the fleet.
  std::size_t next_reduction = 0;
  while (fleet.now() < horizon) {
    while (next_reduction < reductions.size() &&
           hours_to_sim(reductions[next_reduction].start_hour) <=
               fleet.now()) {
      const ScenarioEvent& e = reductions[next_reduction++];
      fleet.set_serving_count(*e.datacenter, *e.pool, e.serving);
    }
    step_window("observe");
  }
  fleet.finish_day();

  compute_environment_metrics(fleet, spec, out.result.metrics);
  // Pool-level assertion targets read the observation phase exactly — and
  // must be resolved now, before retention starts rolling it away.
  compute_pool_assertion_metrics(read_store, spec, out.result.metrics);
  out.result.latency_slo_ms = target_latency_slo_ms(fleet, catalog);

  // --- Pipeline over the live feed -----------------------------------------
  core::LiveFeedBackend::Options feed_opt =
      target_feed_options(fleet, fleet.now(), window);
  // The hook forwards serving changes into the simulator, which produces
  // the active-servers column — validating against it would be circular.
  feed_opt.validate_serving = false;
  feed_opt.label = "headroom serve";
  core::LiveFeedBackend backend(&read_store, feed_opt);
  backend.set_serving_hook([&fleet](std::size_t servers) {
    fleet.set_serving_count(0, 0, servers);
  });
  backend.set_health_monitor(health);

  PipelineContext ctx;
  ctx.store = &read_store;
  // Consumed synchronously by run_measure_and_plan below; the simulator
  // appends more rows during the experiment phase, which may reallocate.
  ctx.server_days = fleet.server_day_cpu();
  ctx.backend = &backend;
  ctx.latency_slo_ms = out.result.latency_slo_ms;
  ctx.datacenter_count = fleet.config().datacenters.size();

  PipelineSession session(spec, ctx);
  session.run_measure_and_plan(out.result);
  start_rsm(session, spec, read_store, fleet.now(), options_);

  // Measure and plan have consumed the full observation history; from here
  // the experiment only reads forward, so the store can roll.
  const SimTime retention = clamp_retention(options_.retention_seconds, window);
  if (retention > 0) {
    fleet.set_store_retention(retention);
    if (health_active) delivered.set_retention(retention);
  }

  if (emit) {
    emit("serve phase=experiment t=" + std::to_string(fleet.now()) +
         " serving=" + std::to_string(fleet.serving_count(0, 0)));
  }

  while (!session.advance_rsm()) {
    if (health != nullptr &&
        health->mode(0, 0) == core::HealthMode::kFailsafe) {
      // The experiment pool's staleness budget is gone. Never shrink on
      // stale data: restore the validated pre-experiment serving count
      // and finish the pipeline degraded instead of waiting forever.
      session.abort_rsm_failsafe();
      continue;
    }
    step_window("experiment");
  }
  session.finalize(out.result);
  evaluate_assertions(spec, out.result);

  // --- Steady-state monitoring (optional) ----------------------------------
  const SimTime steady_end = fleet.now() + options_.extra_days * kDaySeconds;
  while (fleet.now() < steady_end) step_window("steady");

  finish(out, fleet.store(), health, fleet.now(), emit);
  return out;
}

ServeResult ServeRunner::follow(const std::string& trace_dir,
                                const EmitFn& emit) const {
  TraceFeedInfo info;
  const std::string problem = load_trace_feed(trace_dir, &info);
  if (!problem.empty()) throw std::runtime_error(problem);
  const ScenarioSpec& spec = info.spec;

  ServeResult out;
  ReplaySetup setup(spec, out.result);
  const SimTime window = spec.window_seconds;
  const SimTime horizon = spec.days * kDaySeconds;
  const SimTime experiment_start = setup.experiment_start();

  std::vector<PoolStream> streams =
      build_streams(setup.fleet().config(), setup.catalog(), options_);

  // Follow always hardens: the tailer routes every row through a health
  // monitor writing the feed store, so malformed, duplicated, reordered,
  // or non-finite rows are quarantined-and-counted instead of fatal, and
  // a stalled writer degrades the pools instead of hanging the reader.
  telemetry::MetricStore feed;
  core::HealthMonitor monitor(&feed, degradation_options(window, options_));
  for (const TracePoolFeed& pool : info.pools) {
    monitor.add_pool(pool.datacenter, pool.pool);
  }
  std::vector<CsvTailReader> tails;
  tails.reserve(info.pools.size());
  for (const TracePoolFeed& pool : info.pools) {
    tails.emplace_back(pool.path, pool.datacenter, pool.pool, &monitor);
  }

  // The watchdog: `experiment_running` flips the idle response from fatal
  // (nothing to finalize yet) to a clean failsafe exit, and `feed_dead`
  // tells the experiment loop to stop waiting.
  std::size_t idle_polls = 0;
  bool experiment_running = false;
  bool feed_dead = false;
  const auto ingest = [&]() {
    std::size_t rows = 0;
    for (CsvTailReader& tail : tails) rows += tail.poll();
    if (rows > 0) {
      idle_polls = 0;
      monitor.advance(target_feed_end(feed, window));
      return true;
    }
    if (++idle_polls > options_.max_idle_polls) {
      if (!experiment_running) {
        throw std::runtime_error(
            "headroom follow: feed in '" + trace_dir + "' went idle after " +
            std::to_string(options_.max_idle_polls) +
            " polls with the pipeline still waiting at t=" +
            std::to_string(target_feed_end(feed, window)));
      }
      // Mid-experiment a dead feed is a degraded outcome, not a crash:
      // every pool fails safe and the reduction experiment is abandoned.
      const SimTime now = target_feed_end(feed, window);
      monitor.force_degrade(now, core::HealthMode::kStale,
                            "feed watchdog: feed went idle");
      monitor.force_degrade(now, core::HealthMode::kFailsafe,
                            "feed watchdog: idle past the staleness budget");
      feed_dead = true;
      return false;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.poll_ms > 0 ? options_.poll_ms : 1));
    return false;
  };

  // Reports trail the feed: a window is reported once the target pool's
  // workload covers it (pool CSVs are written jointly per window).
  SimTime reported_to = 0;
  const auto report_new_windows = [&]() {
    const SimTime covered = target_feed_end(feed, window);
    while (reported_to < covered) {
      const char* phase =
          reported_to < experiment_start ? "observe" : "experiment";
      emit_window_reports(feed, streams, reported_to, phase, emit,
                          &out.reports, &monitor);
      reported_to += window;
      ++out.windows;
    }
  };

  if (emit) {
    emit("serve phase=observe t=0 horizon=" + std::to_string(horizon));
  }

  // --- Fill to the observation horizon -------------------------------------
  while (target_feed_end(feed, window) < experiment_start) {
    if (ingest()) report_new_windows();
  }
  report_new_windows();

  // The measure/plan stages see the recording truncated at the horizon —
  // exactly what the recording run's pipeline saw (replay semantics). The
  // feed itself stays live (the trace is still growing), and its recorded
  // active_servers column is the truth serving changes validate against.
  core::LiveFeedBackend::Options feed_opt = setup.feed_options();
  feed_opt.label = "headroom follow";
  core::LiveFeedBackend backend(&feed, feed_opt);
  backend.set_health_monitor(&monitor);

  PipelineSession session(
      spec, setup.observe(feed, info.server_days, &backend, out.result));
  session.run_measure_and_plan(out.result);
  start_rsm(session, spec, feed, experiment_start, options_);

  const SimTime retention = clamp_retention(options_.retention_seconds, window);
  if (retention > 0) {
    // A complete recording arrives in one poll, putting the watermark days
    // ahead of the RSM cursor; a watermark-driven sweep would evict windows
    // the session has not observed yet and starve it forever. Pin the
    // eviction floor to the slowest consumer before enabling retention.
    feed.set_eviction_floor(std::min(backend.cursor(), reported_to));
    feed.set_retention(retention);
  }

  if (emit) {
    emit("serve phase=experiment t=" + std::to_string(experiment_start) +
         " serving=" + std::to_string(setup.fleet().serving_count(0, 0)));
  }
  experiment_running = true;

  // --- Experiment phase: advance whenever the tail grows -------------------
  while (!session.advance_rsm()) {
    if (feed_dead ||
        monitor.mode(0, 0) == core::HealthMode::kFailsafe) {
      session.abort_rsm_failsafe();
      continue;
    }
    if (retention > 0) {
      feed.set_eviction_floor(std::min(backend.cursor(), reported_to));
    }
    if (ingest()) report_new_windows();
  }
  report_new_windows();
  session.finalize(out.result);
  evaluate_assertions(spec, out.result);

  finish(out, feed, &monitor, reported_to, emit);
  return out;
}

}  // namespace headroom::scenario
