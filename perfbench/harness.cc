// Benchmark harness: runs one workload of the headroom benchmark through the
// library's public entry points and writes what it measured (raw per-op
// times, set-up times, counts, span statistics) plus the outputs that
// perfbench/run.py checks into a work directory. run.py owns the statistics
// and the output checks; this program owns the timing.
//
//   perfbench_harness --workload serve_steady --timed-days N ...
//   perfbench_harness --workload trace_plan --rounds N ...
//     ... --spec FILE --work DIR --trace 0|1 [--library FILE]
//
// Untraced runs call the library entry points (ServeRunner::serve,
// export_trace, run_plan_on_trace) and time around them. Traced runs drive
// the same work from the layers' public functions instead, with a span
// around every layer call; their outputs must equal the untraced ones.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/capacity_forecast.h"
#include "core/degradation.h"
#include "core/live_feed_backend.h"
#include "core/rolling_plan.h"
#include "query/query_engine.h"
#include "scenario/fault.h"
#include "scenario/pipeline_session.h"
#include "scenario/planning.h"
#include "scenario/scenario_parser.h"
#include "scenario/scenario_runner.h"
#include "scenario/serve.h"
#include "scenario/trace.h"
#include "sim/failover.h"
#include "sim/fleet.h"
#include "telemetry/csv.h"

namespace {

namespace fs = std::filesystem;
namespace sc = headroom::scenario;
namespace tel = headroom::telemetry;
using tel::SimTime;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Spans -------------------------------------------------------------------

/// In-memory span recorder. Every span updates per-name totals (count,
/// calls, total and self time; self = duration minus the time covered by
/// direct child spans). Structural spans are also kept individually and
/// written out at exit; hot leaf calls (thousands per window) are kept only
/// as totals so recording them stays cheap.
class Tracer {
 public:
  struct Stat {
    std::uint64_t spans = 0;
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  void begin(const char* name, bool keep) {
    stack_.push_back({name, now_ns(), 0, keep ? next_id_++ : -1});
  }

  void end(std::uint64_t calls) {
    const std::int64_t stop = now_ns();
    Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = stop - f.start;
    Stat& s = stats_[f.name];  // keyed by the literal's address: cheap
    ++s.spans;
    s.calls += calls;
    s.total_ns += dur;
    s.self_ns += dur - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.id >= 0) {
      const std::int64_t parent = stack_.empty() ? -1 : stack_.back().id;
      spans_.push_back({f.id, parent, f.name, f.start, stop});
    }
  }

  /// Totals per span name.
  [[nodiscard]] std::map<std::string, Stat> stats() const {
    std::map<std::string, Stat> out;
    for (const auto& [name, s] : stats_) {
      Stat& o = out[name];
      o.spans += s.spans;
      o.calls += s.calls;
      o.total_ns += s.total_ns;
      o.self_ns += s.self_ns;
    }
    return out;
  }

  /// One line per kept span: id, parent id (-1 = root), name, start and
  /// end in steady-clock nanoseconds.
  void write_spans(const std::string& path) const {
    std::ofstream out(path);
    out << "id,parent,name,start_ns,end_ns\n";
    for (const Span& s : spans_) {
      out << s.id << ',' << s.parent << ',' << s.name << ',' << s.start
          << ',' << s.end << '\n';
    }
  }

 private:
  struct Frame {
    const char* name;
    std::int64_t start;
    std::int64_t child_ns;
    std::int64_t id;  ///< -1 for spans kept only as totals.
  };
  struct Span {
    std::int64_t id;
    std::int64_t parent;
    const char* name;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::int64_t next_id_ = 0;
  std::unordered_map<const char*, Stat> stats_;
};

/// RAII span; a no-op when tracing is off (null tracer).
class Scope {
 public:
  Scope(Tracer* t, const char* name, bool keep = true,
        std::uint64_t calls = 1)
      : t_(t), calls_(calls) {
    if (t_ != nullptr) t_->begin(name, keep);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end(calls_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_calls(std::uint64_t calls) { calls_ = calls; }

 private:
  Tracer* t_;
  std::uint64_t calls_;
};

// --- Output ------------------------------------------------------------------

/// 64-bit FNV-1a, used for output digests and series checksums.
class Digest {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void add(std::string_view s) { add(s.data(), s.size()); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Minimal JSON object writer for the result file run.py reads.
class Json {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key) += buf;
  }
  void str(const std::string& key, const std::string& v) {
    std::string& out = field(key);
    out += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
  }
  void boolean(const std::string& key, bool v) {
    field(key) += v ? "true" : "false";
  }
  void nums(const std::string& key, const std::vector<std::int64_t>& v) {
    std::string& out = field(key);
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(v[i]);
    }
    out += ']';
  }
  void raw(const std::string& key, const std::string& json) {
    field(key) += json;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string& field(const std::string& key) {
    if (!body_.empty()) body_ += ",\n";
    body_ += "\"" + key + "\": ";
    return body_;
  }
  std::string body_;
};

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.good()) throw std::runtime_error("cannot write " + path.string());
}

double peak_rss_kb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss);
}

/// Span calls per name since the previous snapshot, as a JSON object: the
/// per-repetition work counts, which must repeat exactly.
std::string calls_since(const Tracer& tr,
                        std::map<std::string, std::uint64_t>& last) {
  Json j;
  for (const auto& [name, s] : tr.stats()) {
    j.num(name, static_cast<double>(s.calls - last[name]));
    last[name] = s.calls;
  }
  return j.text();
}

// --- Arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::string spec;
  std::string work;
  std::string library;  ///< Library scenario the spec must equal (seed 5).
  bool trace = false;
  std::size_t timed_days = 0;  ///< serve_steady: timed days per serve run.
  std::size_t rounds = 0;      ///< trace_plan: export -> plan rounds.
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--spec") a.spec = v;
    else if (k == "--work") a.work = v;
    else if (k == "--library") a.library = v;
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--timed-days") a.timed_days = std::stoul(v);
    else if (k == "--rounds") a.rounds = std::stoul(v);
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty() || a.spec.empty() || a.work.empty()) {
    throw std::invalid_argument("--workload, --spec and --work are required");
  }
  if (a.workload == "serve_steady" && a.timed_days == 0) {
    throw std::invalid_argument("serve_steady needs --timed-days >= 1");
  }
  if (a.workload == "trace_plan" && a.rounds == 0) {
    throw std::invalid_argument("trace_plan needs --rounds >= 1");
  }
  return a;
}

sc::ScenarioSpec load_spec(const std::string& path) {
  sc::ParseResult parsed = sc::load_scenario_file(path);
  if (!parsed.ok()) throw std::runtime_error(parsed.error);
  return parsed.spec;
}

/// True when the generated spec is the library scenario, lane count aside
/// (the generator always names an explicit lane count).
bool matches_library(const sc::ScenarioSpec& spec, const std::string& path) {
  sc::ScenarioSpec library = load_spec(path);
  library.threads = spec.threads;
  return library == spec;
}

// --- serve_steady ------------------------------------------------------------

/// Per-window bookkeeping shared by the untraced and traced serve paths:
/// the wall-clock stamp at which each window's first report line appears
/// (a window's cost is the gap to the next stamp; the loop is closed, so
/// the next window is stepped only after this one's reports are out) and
/// a digest over every report line.
struct WindowLog {
  std::vector<std::int64_t> t;      ///< Window start (sim seconds).
  std::vector<std::int64_t> stamp;  ///< First report line, steady clock ns.
  std::int64_t done_ns = 0;         ///< After the last window.
  Digest reports;
  std::size_t lines = 0;
  std::size_t dark_lines = 0;  ///< Pools the feed left dark that window.

  void line(SimTime window_start, const std::string& text) {
    if (t.empty() || t.back() != window_start) {
      t.push_back(window_start);
      stamp.push_back(now_ns());
    }
    reports.add(text);
    reports.add("\n", 1);
    ++lines;
    if (text.find(" dark=1 ") != std::string::npos) ++dark_lines;
  }
};

struct ServeOutcome {
  std::string summary;
  std::string health_report;
  std::size_t windows = 0;
  std::size_t resident_samples = 0;
  std::size_t evicted_samples = 0;
  std::size_t rolling_rebuilds = 0;
};

/// Untraced: the library's serve loop, timed from its report stream.
ServeOutcome serve_untraced(const sc::ScenarioSpec& spec,
                            const sc::ServeOptions& opt, WindowLog& log) {
  const sc::ServeRunner runner(opt);
  const sc::EmitFn emit = [&log](const std::string& line) {
    if (line.rfind("window t=", 0) != 0) return;
    log.line(std::stoll(line.substr(9)), line);
  };
  const sc::ServeResult r = runner.serve(spec, emit);
  log.done_ns = now_ns();
  ServeOutcome out;
  out.summary = r.summary;
  out.health_report = r.health_report;
  out.windows = r.windows;
  out.resident_samples = r.resident_samples;
  out.evicted_samples = r.evicted_samples;
  return out;
}

/// The rolling retention serve switches to after the observation phase:
/// the requested bound, but never less than one day plus a window.
SimTime serve_retention(const sc::ServeOptions& opt, SimTime window) {
  return std::max(opt.retention_seconds, sc::kDaySeconds + window);
}

/// One pool's report state, as the serve loop keeps it.
struct PoolStream {
  std::uint32_t dc = 0;
  std::uint32_t pool = 0;
  headroom::core::RollingPoolPlanner planner;
  std::size_t pool_size = 0;
  long long last_serving = 0;
  std::optional<headroom::core::HeadroomPlan> last_plan;
};

/// Traced: the serve loop driven from FleetSimulator, the fault-injection
/// and HealthMonitor delivery surface, QueryEngine and RollingPoolPlanner,
/// with a span around each layer call. Mirrors ServeRunner::serve for a
/// hardened, fault-free, reduction-free spec with a measure-only pipeline
/// (what serve_steady generates); the report digest and the summary must
/// equal the untraced run's.
ServeOutcome serve_traced(const sc::ScenarioSpec& spec,
                          const sc::ServeOptions& opt, WindowLog& log,
                          Tracer& tr) {
  namespace core = headroom::core;
  namespace sim = headroom::sim;
  if (!sc::sorted_reductions(spec).empty() || !spec.faults.empty() ||
      spec.runs(sc::PipelineStep::kOptimize)) {
    throw std::invalid_argument(
        "serve_traced: the spec has reductions, faults or the RSM step, "
        "which the traced loop does not reproduce");
  }
  const sim::MicroserviceCatalog catalog;
  std::unique_ptr<sim::FleetSimulator> fleet;
  {
    Scope s(&tr, "sim.build_fleet");
    fleet = std::make_unique<sim::FleetSimulator>(
        sc::ScenarioRunner::build_fleet(spec, catalog), catalog);
  }
  const SimTime window = spec.window_seconds;
  const SimTime horizon = spec.days * sc::kDaySeconds;
  const sim::FleetConfig& config = fleet->config();

  core::RollingPoolPlanner::Options ropt;
  ropt.lookback_windows = opt.rolling_lookback_windows;
  ropt.min_windows = opt.rolling_min_windows;
  std::vector<PoolStream> streams;
  const std::size_t dc_count = config.datacenters.size();
  for (std::uint32_t d = 0; d < dc_count; ++d) {
    for (std::uint32_t p = 0; p < config.datacenters[d].pools.size(); ++p) {
      core::HeadroomPolicy policy;
      policy.qos.latency.p95_ms =
          catalog.by_name(config.datacenters[d].pools[p].service)
              .latency_slo_ms;
      policy.dr_headroom_fraction =
          dc_count > 1 ? 1.0 / static_cast<double>(dc_count) : 0.125;
      streams.push_back({d, p, core::RollingPoolPlanner(policy, ropt),
                         config.datacenters[d].pools[p].servers, 0,
                         std::nullopt});
    }
  }

  tel::MetricStore delivered;
  sc::FaultInjector injector(spec);
  core::DegradationOptions dopt;
  dopt.window_seconds = window;
  dopt.heal_budget_seconds = opt.heal_budget_seconds;
  dopt.staleness_budget_seconds = opt.staleness_budget_seconds;
  core::HealthMonitor monitor(&delivered, dopt);
  for (const PoolStream& s : streams) monitor.add_pool(s.dc, s.pool);

  std::size_t windows = 0;
  std::vector<sc::DeliveredSample> samples;
  const auto step_window = [&](SimTime t, const char* phase) {
    Scope w(&tr, "serve.window");
    {
      Scope s(&tr, "sim.run_until");
      fleet->run_until(t + window);
    }
    {
      Scope s(&tr, "serve.deliver");
      std::vector<tel::SeriesKey> keys;
      {
        Scope k(&tr, "telemetry.store_keys", false);
        keys = fleet->store().keys();
      }
      const auto sample_at = [&](const tel::SeriesKey& key, double* v) {
        const tel::TimeSeries& series = fleet->store().series(key);
        const std::size_t i = series.first_index_at_or_after(t);
        if (i >= series.size() || series.time_at(i) != t) return false;
        *v = series.value_at(i);
        return true;
      };
      std::size_t i = 0;
      while (i < keys.size()) {
        double v = 0.0;
        if (keys[i].server != tel::SeriesKey::kPoolScope) {
          if (sample_at(keys[i], &v)) delivered.record(keys[i], t, v);
          ++i;
          continue;
        }
        const std::uint32_t dc = keys[i].datacenter;
        const std::uint32_t pool = keys[i].pool;
        samples.clear();
        while (i < keys.size() && keys[i].datacenter == dc &&
               keys[i].pool == pool &&
               keys[i].server == tel::SeriesKey::kPoolScope) {
          if (sample_at(keys[i], &v)) samples.push_back({keys[i], t, v});
          ++i;
        }
        injector.deliver(dc, pool, t, &samples);
        Scope h(&tr, "core.health_ingest", false, samples.size());
        for (const sc::DeliveredSample& sample : samples) {
          monitor.ingest(sample.key, sample.time, sample.value);
        }
      }
      Scope h(&tr, "core.health_advance", false);
      monitor.advance(t + window);
    }
    ++windows;
    Scope r(&tr, "serve.reports");
    const headroom::query::QueryEngine engine(&delivered);
    for (PoolStream& s : streams) {
      const auto value_at = [&](tel::MetricKind kind, double* out) {
        Scope q(&tr, "query.window_value", false);
        const std::optional<double> v = engine.window_value(
            {s.dc, s.pool, tel::SeriesKey::kPoolScope, kind}, t);
        if (!v) return false;
        *out = *v;
        return true;
      };
      double rps = 0.0;
      double cpu = 0.0;
      double latency = 0.0;
      double active = 0.0;
      const bool lit = value_at(tel::MetricKind::kRequestsPerSecond, &rps) &&
                       value_at(tel::MetricKind::kCpuPercentAttributed, &cpu) &&
                       value_at(tel::MetricKind::kLatencyP95Ms, &latency) &&
                       value_at(tel::MetricKind::kActiveServers, &active);
      const core::DegradationTracker* health = monitor.find(s.dc, s.pool);
      const auto fmt = [&tr](double v) {
        Scope f(&tr, "telemetry.format_double", false);
        return tel::format_double(v);
      };
      std::string line;
      line += "window t=" + std::to_string(t);
      line += " dc=" + std::to_string(s.dc);
      line += " pool=" + std::to_string(s.pool);
      line += " phase=";
      line += phase;
      if (lit) {
        {
          Scope p(&tr, "core.rolling_add_window", false);
          s.planner.add_window(rps, cpu, latency, health->window_healed(t));
        }
        const auto serving = static_cast<long long>(active);
        s.last_serving = serving;
        line += " rps=" + fmt(rps);
        line += " cpu_pct=" + fmt(cpu);
        line += " p95_ms=" + fmt(latency);
        line += " serving=" + std::to_string(serving);
        std::optional<core::HeadroomPlan> plan;
        {
          Scope p(&tr, "core.rolling_plan", false);
          plan = s.planner.plan(
              serving > 0 ? static_cast<std::size_t>(serving) : 0);
        }
        if (plan) {
          line += " plan=" + std::to_string(plan->recommended_servers);
          s.last_plan = plan;
        }
      } else {
        // Dark window: hold the last plan, or the whole pool in FAILSAFE.
        line += " dark=1 serving=" + std::to_string(s.last_serving);
        if (health->mode() == core::HealthMode::kFailsafe) {
          line += " plan=" + std::to_string(s.pool_size);
        } else if (s.last_plan) {
          line += " plan=" + std::to_string(s.last_plan->recommended_servers);
        }
      }
      line += " mode=";
      line += core::to_string(health->mode());
      line += " healed=" + std::to_string(health->counters().healed);
      line += " quarantined=" +
              std::to_string(health->counters().quarantined_total());
      log.line(t, line);
    }
  };

  while (fleet->now() < horizon) step_window(fleet->now(), "observe");
  fleet->finish_day();

  sc::ScenarioRunResult result;
  result.spec = spec;
  result.thread_count = fleet->thread_count();
  sc::compute_environment_metrics(*fleet, spec, result.metrics);
  sc::compute_pool_assertion_metrics(delivered, spec, result.metrics);
  result.latency_slo_ms =
      catalog.by_name(config.datacenters[0].pools[0].service).latency_slo_ms;

  core::LiveFeedBackend::Options feed_opt;
  feed_opt.pool_size = fleet->pool_size(0, 0);
  feed_opt.serving = fleet->serving_count(0, 0);
  feed_opt.start = fleet->now();
  feed_opt.window_seconds = window;
  feed_opt.sealed = false;
  feed_opt.validate_serving = false;
  feed_opt.label = "perfbench serve";
  core::LiveFeedBackend backend(&delivered, feed_opt);
  backend.set_health_monitor(&monitor);
  sc::PipelineContext ctx;
  ctx.store = &delivered;
  ctx.server_days = fleet->server_day_cpu();
  ctx.backend = &backend;
  ctx.latency_slo_ms = result.latency_slo_ms;
  ctx.datacenter_count = dc_count;
  sc::PipelineSession session(spec, ctx);
  {
    Scope s(&tr, "core.measure_plan");
    session.run_measure_and_plan(result);
  }
  session.start_rsm();
  const SimTime retention = serve_retention(opt, window);
  fleet->set_store_retention(retention);
  delivered.set_retention(retention);
  if (!session.advance_rsm()) {
    throw std::runtime_error("serve_traced: RSM pending in a measure-only run");
  }
  session.finalize(result);
  sc::evaluate_assertions(spec, result);

  const SimTime steady_end = fleet->now() + opt.extra_days * sc::kDaySeconds;
  while (fleet->now() < steady_end) step_window(fleet->now(), "steady");
  log.done_ns = now_ns();

  ServeOutcome out;
  out.summary = sc::format_summary(result);
  out.health_report = monitor.format_report();
  out.windows = windows;
  out.resident_samples = fleet->store().sample_count();
  out.evicted_samples = fleet->store().evicted_samples();
  for (const PoolStream& s : streams) {
    out.rolling_rebuilds += s.planner.rebuilds();
  }
  return out;
}

/// Serve runs per process. Each is one set-up (fleet build, observation,
/// measure step, retention warm-up); setup_s is their median.
constexpr std::size_t kServeRuns = 3;

void run_serve(const Args& a, const sc::ScenarioSpec& spec, Tracer* tr,
               Json& j) {
  sc::ServeOptions opt;
  opt.harden = true;
  // Steady state starts once the rolling store has filled its retention
  // bound after the observation phase; windows before that are warm-up.
  const SimTime retention = serve_retention(opt, spec.window_seconds);
  const SimTime steady_from = spec.days * sc::kDaySeconds + retention;
  const SimTime warm_days = (retention + sc::kDaySeconds - 1) / sc::kDaySeconds;
  opt.extra_days = warm_days + static_cast<std::int64_t>(a.timed_days);

  std::vector<std::int64_t> setup_ns, op_t, op_ns;
  std::string reps_json = "[";
  std::string calls_json = "[";
  std::map<std::string, std::uint64_t> calls;
  for (std::size_t rep = 0; rep < kServeRuns; ++rep) {
    WindowLog log;
    const std::int64_t start = now_ns();
    const ServeOutcome o = tr != nullptr ? serve_traced(spec, opt, log, *tr)
                                         : serve_untraced(spec, opt, log);
    bool first_steady = true;
    for (std::size_t w = 0; w < log.t.size(); ++w) {
      const std::int64_t next =
          w + 1 < log.t.size() ? log.stamp[w + 1] : log.done_ns;
      op_t.push_back(log.t[w]);
      op_ns.push_back(next - log.stamp[w]);
      if (first_steady && log.t[w] >= steady_from) {
        setup_ns.push_back(log.stamp[w] - start);
        first_steady = false;
      }
    }
    const std::string tag = std::to_string(rep);
    write_file(fs::path(a.work) / ("summary_" + tag + ".txt"), o.summary);
    write_file(fs::path(a.work) / ("health_" + tag + ".txt"),
               o.health_report);
    Json r;
    r.str("report_digest", log.reports.hex());
    r.num("report_lines", static_cast<double>(log.lines));
    r.num("dark_lines", static_cast<double>(log.dark_lines));
    r.num("windows", static_cast<double>(o.windows));
    r.num("resident_samples", static_cast<double>(o.resident_samples));
    r.num("evicted_samples", static_cast<double>(o.evicted_samples));
    if (tr != nullptr) {
      r.num("rolling_rebuilds", static_cast<double>(o.rolling_rebuilds));
    }
    reps_json += (rep > 0 ? "," : "") + r.text();
    if (tr != nullptr) {
      calls_json += (rep > 0 ? "," : "") + calls_since(*tr, calls);
    }
  }
  reps_json += "]";
  // Before the reference run, so the figure is the workload's own.
  j.num("peak_rss_kb", peak_rss_kb());

  // Reference for the output check, outside every timed section.
  const sc::ScenarioRunResult batch = sc::ScenarioRunner().run(spec);
  write_file(fs::path(a.work) / "batch_summary.txt",
             sc::format_summary(batch));

  j.nums("setup_ns", setup_ns);
  j.nums("op_t", op_t);
  j.nums("op_ns", op_ns);
  j.num("steady_from", static_cast<double>(steady_from));
  j.num("servers", batch.metrics.at("total_servers"));
  j.raw("reps", reps_json);
  if (tr != nullptr) j.raw("rep_calls", calls_json + "]");
}

// --- trace_plan --------------------------------------------------------------

/// Per-DC stress multipliers of an outage case, from the failover policy
/// seeded with the DCs' demand weights (the planning sweep's definition).
std::vector<sc::PlanStress> outage_stresses(
    const std::vector<headroom::sim::DatacenterConfig>& dcs,
    headroom::sim::FailoverPolicyKind policy, std::uint32_t failed) {
  const std::size_t n = dcs.size();
  std::vector<double> demand(n, 0.0);
  std::vector<std::uint8_t> down(n, 0);
  for (std::size_t d = 0; d < n; ++d) demand[d] = dcs[d].demand_weight;
  down[failed] = 1;
  headroom::sim::make_failover_policy(policy, dcs)->redistribute(down, demand);
  std::vector<sc::PlanStress> out;
  for (std::size_t d = 0; d < n; ++d) {
    if (d == failed || dcs[d].demand_weight <= 0.0) continue;
    const double m = demand[d] / dcs[d].demand_weight;
    if (m != 1.0) out.push_back({static_cast<std::uint32_t>(d), m});
  }
  return out;
}

/// Traced plan: the what-if sweep driven from load_trace_feed,
/// read_pool_csv, CapacityForecaster and format_plan, one span per call.
/// Its report must equal run_plan_on_trace's. Returns the report.
///
/// The window_value reads and the trend x season decomposition inside
/// forecast_pool, and the CSV writing inside export_trace, are not
/// reachable from outside: they stay in those calls' self time.
std::string plan_traced(const std::string& dir, sc::PlanResult& result,
                        Tracer& tr) {
  namespace sim = headroom::sim;
  namespace core = headroom::core;
  sc::TraceFeedInfo info;
  {
    Scope s(&tr, "scenario.load_trace_feed");
    const std::string problem = sc::load_trace_feed(dir, &info);
    if (!problem.empty()) throw std::runtime_error(problem);
  }
  tel::MetricStore store;
  for (const sc::TracePoolFeed& feed : info.pools) {
    std::ifstream in(feed.path);
    Scope s(&tr, "telemetry.read_pool_csv");
    const tel::CsvReadResult read =
        tel::read_pool_csv(in, feed.path, &store, feed.datacenter, feed.pool);
    if (!read.ok()) throw std::runtime_error(read.error);
  }
  const sim::MicroserviceCatalog catalog;
  const sim::FleetConfig config =
      sc::ScenarioRunner::build_fleet(info.spec, catalog);
  result = {};
  result.spec = info.spec;
  result.source = "trace";
  result.history_end = info.spec.days * sc::kDaySeconds;
  result.datacenters = config.datacenters.size();
  for (const sim::DatacenterConfig& dc : config.datacenters) {
    result.total_pools += dc.pools.size();
  }
  for (const sc::ScenarioEvent& e : info.spec.events) {
    if (e.kind == sc::ScenarioEventKind::kDatacenterOutage && e.datacenter) {
      result.outage_datacenters.push_back(*e.datacenter);
    }
  }
  std::sort(result.outage_datacenters.begin(), result.outage_datacenters.end());
  result.outage_datacenters.erase(
      std::unique(result.outage_datacenters.begin(),
                  result.outage_datacenters.end()),
      result.outage_datacenters.end());
  std::vector<double> growths = result.options.growths;
  std::sort(growths.begin(), growths.end());
  const std::vector<sim::FailoverPolicyKind> policies = {
      sim::FailoverPolicyKind::kNearestSurvivor,
      sim::FailoverPolicyKind::kLatencyAware,
      sim::FailoverPolicyKind::kCostAware};

  const headroom::query::QueryEngine engine(&store);
  for (const double growth : growths) {
    for (const sim::FailoverPolicyKind policy : policies) {
      for (std::size_t c = 0; c <= result.outage_datacenters.size(); ++c) {
        sc::PlanCase pc;
        pc.growth = growth;
        pc.policy = policy;
        if (c > 0) {
          pc.has_outage = true;
          pc.outage_datacenter = result.outage_datacenters[c - 1];
          pc.stresses =
              outage_stresses(config.datacenters, policy, pc.outage_datacenter);
        }
        for (std::uint32_t d = 0; d < config.datacenters.size(); ++d) {
          if (pc.has_outage && d == pc.outage_datacenter) continue;
          double stress = 1.0;
          for (const sc::PlanStress& s : pc.stresses) {
            if (s.datacenter == d) stress = s.multiplier;
          }
          const sim::DatacenterConfig& dc = config.datacenters[d];
          for (std::uint32_t p = 0; p < dc.pools.size(); ++p) {
            core::CapacityForecastOptions fopt;
            fopt.window_seconds = info.spec.window_seconds;
            fopt.horizon_seconds = result.options.horizon_seconds;
            fopt.critical_seconds =
                std::min<SimTime>(30 * 86400, result.options.horizon_seconds);
            fopt.growth_multiplier = growth * stress;
            const core::CapacityForecaster forecaster(&engine, fopt);
            core::CapacityForecaster::PoolSpec ps;
            ps.datacenter = d;
            ps.pool = p;
            ps.servers = dc.pools[p].servers;
            ps.target_rps_per_server =
                catalog.by_name(dc.pools[p].service).target_rps_per_server_p95;
            Scope s(&tr, "core.forecast_pool");
            pc.pools.push_back(
                forecaster.forecast_pool(ps, 0, result.history_end));
          }
        }
        result.cases.push_back(std::move(pc));
      }
    }
  }
  if (!result.cases.empty() && !result.cases.front().pools.empty()) {
    result.windows = result.cases.front().pools.front().windows_observed;
  }
  Scope s(&tr, "scenario.format_plan");
  return sc::format_plan(result);
}

void run_trace_plan(const Args& a, const sc::ScenarioSpec& spec, Tracer* tr,
                    Json& j) {
  std::vector<std::int64_t> setup_ns, export_ns, plan_ns, csv_bytes;
  std::size_t forecasts = 0;
  std::string first_report;
  bool reports_agree = true;
  std::size_t servers = 0;
  std::size_t windows = 0;
  std::string calls_json = "[";
  std::map<std::string, std::uint64_t> calls;
  for (std::size_t r = 0; r < a.rounds; ++r) {
    const std::string dir = (fs::path(a.work) / "trace").string();
    fs::remove_all(dir);
    sc::ScenarioRunResult run;
    std::int64_t t0 = now_ns();
    {
      Scope s(tr, "scenario.export_trace");
      const sc::TraceExportResult ex = sc::export_trace(spec, dir, &run);
      if (!ex.ok()) throw std::runtime_error(ex.error);
    }
    export_ns.push_back(now_ns() - t0);

    t0 = now_ns();
    sc::TraceFeedInfo info;
    const std::string problem = sc::load_trace_feed(dir, &info);
    if (!problem.empty()) throw std::runtime_error(problem);
    setup_ns.push_back(now_ns() - t0);
    std::int64_t bytes = 0;
    for (const sc::TracePoolFeed& feed : info.pools) {
      bytes += static_cast<std::int64_t>(fs::file_size(feed.path));
    }
    csv_bytes.push_back(bytes);

    std::string report;
    sc::PlanResult plan;
    t0 = now_ns();
    if (tr != nullptr) {
      report = plan_traced(dir, plan, *tr);
    } else {
      plan = sc::run_plan_on_trace(dir);
      report = sc::format_plan(plan);
    }
    plan_ns.push_back(now_ns() - t0);
    for (const sc::PlanCase& c : plan.cases) forecasts += c.pools.size();
    if (r == 0) {
      first_report = report;
      servers = static_cast<std::size_t>(run.metrics.at("total_servers"));
      windows = plan.windows;
    } else {
      reports_agree = reports_agree && report == first_report;
    }
    if (tr != nullptr) {
      calls_json += (r > 0 ? "," : "") + calls_since(*tr, calls);
    }
  }
  fs::remove_all(fs::path(a.work) / "trace");
  // Before the reference run, so the figure is the workload's own.
  j.num("peak_rss_kb", peak_rss_kb());
  write_file(fs::path(a.work) / "plan_report.txt", first_report);
  // Reference for the output check: the same sweep stepped from the spec.
  write_file(fs::path(a.work) / "plan_reference.txt",
             sc::format_plan(sc::run_plan(spec)));

  std::vector<std::int64_t> op_ns;
  for (std::size_t r = 0; r < a.rounds; ++r) {
    op_ns.push_back(export_ns[r] + plan_ns[r]);
  }
  j.nums("setup_ns", setup_ns);
  j.nums("export_ns", export_ns);
  j.nums("plan_ns", plan_ns);
  j.nums("op_ns", op_ns);
  j.nums("csv_bytes", csv_bytes);
  j.num("forecasts", static_cast<double>(forecasts));
  j.num("servers", static_cast<double>(servers));
  j.num("windows", static_cast<double>(windows));
  j.boolean("reports_agree", reports_agree);
  if (tr != nullptr) j.raw("rep_calls", calls_json + "]");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const sc::ScenarioSpec spec = load_spec(a.spec);
    Json j;
    j.str("workload", a.workload);
    j.boolean("traced", a.trace);
    if (!a.library.empty()) {
      j.boolean("spec_is_library", matches_library(spec, a.library));
    }
    std::unique_ptr<Tracer> tracer;
    if (a.trace) tracer = std::make_unique<Tracer>();
    if (a.workload == "serve_steady") {
      run_serve(a, spec, tracer.get(), j);
    } else if (a.workload == "trace_plan") {
      run_trace_plan(a, spec, tracer.get(), j);
    } else {
      throw std::invalid_argument("unknown workload " + a.workload);
    }
    if (tracer) {
      std::string stats = "{";
      bool first = true;
      for (const auto& [name, s] : tracer->stats()) {
        Json e;
        e.num("spans", static_cast<double>(s.spans));
        e.num("calls", static_cast<double>(s.calls));
        e.num("total_ns", static_cast<double>(s.total_ns));
        e.num("self_ns", static_cast<double>(s.self_ns));
        stats += (first ? "\"" : ",\n\"") + name + "\": " + e.text();
        first = false;
      }
      j.raw("spans", stats + "}");
      tracer->write_spans((fs::path(a.work) / "spans.csv").string());
    }
    write_file(fs::path(a.work) / "result.json", j.text() + "\n");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
