// Continuous-mode cost model: what one telemetry window costs the serve
// pipeline as history accumulates.
//
// The batch pipeline refits from scratch, so a per-window re-plan would
// cost O(history): the scatter refit and the P95 scan both walk every
// sample ever seen. Serve mode's RollingPoolPlanner maintains the two
// response curves from running sums over a bounded ring, making the
// re-plan O(lookback) — flat in feed length. This bench measures both
// paths at increasing history depths, plus the rest of the story: resident
// telemetry bytes under rolling retention vs keep-everything, and the
// per-window cost of recording into a full retention window, which must
// not grow with the retention length (eviction is amortized O(1)).
//
// Writes BENCH_serve_incremental.json (machine-readable trajectory data;
// CI uploads it as an artifact).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/headroom_optimizer.h"
#include "core/pool_model.h"
#include "core/rolling_plan.h"
#include "stats/percentile.h"
#include "telemetry/metric_store.h"

namespace {

using Clock = std::chrono::steady_clock;
using headroom::core::HeadroomOptimizer;
using headroom::core::HeadroomPlan;
using headroom::core::HeadroomPolicy;
using headroom::core::PoolResponseModel;
using headroom::core::RollingPoolPlanner;
using headroom::telemetry::AlignedPair;
using headroom::telemetry::MetricKind;
using headroom::telemetry::MetricStore;
using headroom::telemetry::SeriesKey;
using headroom::telemetry::SimTime;

namespace bench = headroom::bench;

constexpr SimTime kWindowSeconds = 120;
constexpr std::size_t kWindowsPerDay = 86400 / kWindowSeconds;  // 720
constexpr std::size_t kLookback = kWindowsPerDay;  // serve's default ring
constexpr std::size_t kProbes = 50;  // replans timed per depth point
// Retention-cost probe: windows timed per repetition (eight days, so the
// 16-day store compacts its evicted prefix several times) and repetitions
// (the median is reported).
constexpr std::size_t kRecordWindows = 8 * kWindowsPerDay;
constexpr std::size_t kRecordReps = 5;

/// Serve's pool-scope series for one pool.
const std::vector<MetricKind>& pool_kinds() {
  static const std::vector<MetricKind> kinds{
      MetricKind::kRequestsPerSecond, MetricKind::kCpuPercentAttributed,
      MetricKind::kCpuPercentTotal, MetricKind::kLatencyP95Ms,
      MetricKind::kActiveServers};
  return kinds;
}

/// Deterministic diurnal feed: per-server RPS wave plus the linear CPU and
/// quadratic latency responses the planner fits, with a small wobble so
/// neither fit is degenerate.
struct FeedPoint {
  double rps;
  double cpu;
  double latency;
};

FeedPoint feed_at(std::size_t window) {
  const double phase =
      2.0 * 3.14159265358979323846 *
      static_cast<double>(window % kWindowsPerDay) /
      static_cast<double>(kWindowsPerDay);
  const double wobble = static_cast<double>(window % 13) * 0.35;
  const double rps = 120.0 + 60.0 * std::sin(phase) + wobble;
  return {rps, 2.0 + 0.031 * rps + 0.02 * wobble,
          22.0 + 0.004 * rps + 0.000024 * rps * rps - 0.01 * wobble};
}

HeadroomPolicy policy() {
  HeadroomPolicy p;
  p.qos.latency.p95_ms = 100.0;
  return p;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The batch path's per-window cost: refit both curves over the full
/// history and re-plan. This is what serve would pay without the rolling
/// sums.
HeadroomPlan full_recompute_plan(const AlignedPair& rps_vs_cpu,
                                 const AlignedPair& rps_vs_latency,
                                 std::size_t servers) {
  const PoolResponseModel model =
      PoolResponseModel::fit(rps_vs_cpu, rps_vs_latency);
  const double p95 = headroom::stats::percentile(rps_vs_cpu.x, 95.0);
  return HeadroomOptimizer(policy()).plan(model, p95, servers);
}

/// Median per-window cost, in ns, of recording one pool's five series
/// into a store whose `retention_days` window is already full, so every
/// window also evicts one sample from each series.
double record_ns_per_window(std::size_t retention_days) {
  MetricStore store;
  store.set_retention(static_cast<SimTime>(retention_days) * 86400);
  std::size_t w = 0;
  const auto record_window = [&] {
    const SimTime t = static_cast<SimTime>(w) * kWindowSeconds;
    const FeedPoint f = feed_at(w++);
    for (const MetricKind kind : pool_kinds()) {
      store.record({0, 0, SeriesKey::kPoolScope, kind}, t, f.rps);
    }
  };
  while (w < (retention_days + 1) * kWindowsPerDay) record_window();
  std::vector<double> reps;
  for (std::size_t rep = 0; rep < kRecordReps; ++rep) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kRecordWindows; ++i) record_window();
    reps.push_back(seconds_since(start) * 1e9 /
                   static_cast<double>(kRecordWindows));
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

}  // namespace

int main() {
  bench::header(
      "Continuous mode — per-window re-plan cost vs history length",
      "serve re-plans every 120 s window; the rolling fit must stay flat "
      "in feed length where a from-scratch refit grows linearly");

  const std::vector<std::size_t> depth_days{1, 7, 30};
  std::vector<headroom::bench::JsonObject> depth_rows;
  double rolling_us_first = 0.0;
  double rolling_us_last = 0.0;
  double speedup_last = 0.0;

  for (const std::size_t days : depth_days) {
    const std::size_t windows = days * kWindowsPerDay;

    // Feed the rolling planner the whole history, then time steady-state
    // window arrivals (add + plan), the serve loop's actual work.
    RollingPoolPlanner::Options ropt;
    ropt.lookback_windows = kLookback;
    RollingPoolPlanner rolling(policy(), ropt);
    AlignedPair rps_vs_cpu;
    AlignedPair rps_vs_latency;
    for (std::size_t w = 0; w < windows; ++w) {
      const FeedPoint f = feed_at(w);
      rolling.add_window(f.rps, f.cpu, f.latency);
      rps_vs_cpu.x.push_back(f.rps);
      rps_vs_cpu.y.push_back(f.cpu);
      rps_vs_latency.x.push_back(f.rps);
      rps_vs_latency.y.push_back(f.latency);
    }

    const Clock::time_point roll_start = Clock::now();
    double sink = 0.0;
    for (std::size_t probe = 0; probe < kProbes; ++probe) {
      const FeedPoint f = feed_at(windows + probe);
      rolling.add_window(f.rps, f.cpu, f.latency);
      if (const auto plan = rolling.plan(64)) {
        sink += static_cast<double>(plan->recommended_servers);
      }
    }
    const double rolling_us =
        seconds_since(roll_start) / static_cast<double>(kProbes) * 1e6;

    // The from-scratch alternative at the same depth (RANSAC refit + full
    // P95 scan per window).
    const Clock::time_point full_start = Clock::now();
    for (std::size_t probe = 0; probe < kProbes; ++probe) {
      const HeadroomPlan plan =
          full_recompute_plan(rps_vs_cpu, rps_vs_latency, 64);
      sink += static_cast<double>(plan.recommended_servers);
    }
    const double full_us =
        seconds_since(full_start) / static_cast<double>(kProbes) * 1e6;

    const double speedup = full_us / rolling_us;
    std::printf(
        "  history %3zu d (%6zu windows): rolling %8.1f us/window, "
        "full refit %10.1f us/window, speedup %7.1fx  [checksum %.0f]\n",
        days, windows, rolling_us, full_us, speedup, sink);

    if (days == depth_days.front()) rolling_us_first = rolling_us;
    rolling_us_last = rolling_us;
    speedup_last = speedup;

    headroom::bench::JsonObject row;
    row.num("history_days", days)
        .num("history_windows", windows)
        .num("rolling_us_per_window", rolling_us)
        .num("full_refit_us_per_window", full_us)
        .num("speedup", speedup);
    depth_rows.push_back(row);
  }

  bench::header(
      "Continuous mode — resident telemetry under rolling retention",
      "an endless feed must cost O(retention) memory, not O(elapsed); "
      "evicted samples are dropped");

  // The serve shape: one pool's five pool-scope series fed for 30 days,
  // with and without the default 2-day retention.
  const std::size_t feed_days = 30;
  const std::vector<MetricKind>& kinds = pool_kinds();
  MetricStore unbounded;
  MetricStore rolling_store;
  rolling_store.set_retention(2 * 86400);
  for (std::size_t w = 0; w < feed_days * kWindowsPerDay; ++w) {
    const SimTime t = static_cast<SimTime>(w) * kWindowSeconds;
    const FeedPoint f = feed_at(w);
    for (const MetricKind kind : kinds) {
      const SeriesKey key{0, 0, SeriesKey::kPoolScope, kind};
      unbounded.record(key, t, f.rps);
      rolling_store.record(key, t, f.rps);
    }
  }
  // Stride-encoded series cost 8 bytes per resident sample.
  const std::size_t unbounded_bytes = unbounded.sample_count() * 8;
  const std::size_t rolling_bytes = rolling_store.sample_count() * 8;
  std::printf(
      "  %zu-day feed, %zu series: unbounded %zu samples (%.1f KiB), "
      "retained %zu samples (%.1f KiB), %zu evicted\n",
      feed_days, kinds.size(), unbounded.sample_count(),
      static_cast<double>(unbounded_bytes) / 1024.0,
      rolling_store.sample_count(),
      static_cast<double>(rolling_bytes) / 1024.0,
      rolling_store.evicted_samples());
  const double footprint_reduction =
      1.0 - static_cast<double>(rolling_store.sample_count()) /
                static_cast<double>(unbounded.sample_count());
  bench::note("footprint reduction " +
              std::to_string(footprint_reduction * 100.0) + "%");

  bench::header(
      "Continuous mode — per-window record cost vs retention length",
      "the retention sweep evicts one sample per series per window; its "
      "cost must not grow with how much history is retained");
  const double record_ns_2d = record_ns_per_window(2);
  const double record_ns_16d = record_ns_per_window(16);
  const double retention_ratio = record_ns_16d / record_ns_2d;
  std::printf(
      "  %zu series, full retention: 2-day %.0f ns/window, 16-day %.0f "
      "ns/window, ratio %.2fx\n",
      kinds.size(), record_ns_2d, record_ns_16d, retention_ratio);

  // Acceptance: the rolling re-plan is flat in history (30-day cost within
  // 3x of 1-day — same ring, only noise differs) and beats the refit, and
  // recording into a 16-day retention window costs within 3x of a 2-day
  // one (an eviction that moved the resident series would cost ~8x).
  const bool flat = rolling_us_last <= rolling_us_first * 3.0;
  const bool faster = speedup_last > 10.0;
  const bool bounded =
      rolling_store.sample_count() < unbounded.sample_count() / 10;
  const bool retention_flat = retention_ratio <= 3.0;
  const bool pass = flat && faster && bounded && retention_flat;
  std::printf(
      "\n  acceptance: flat=%s faster=%s bounded=%s retention_flat=%s\n",
      flat ? "yes" : "NO", faster ? "yes" : "NO", bounded ? "yes" : "NO",
      retention_flat ? "yes" : "NO");

  headroom::bench::JsonObject json;
  json.str("bench", "serve_incremental")
      .num("lookback_windows", kLookback)
      .num("probes_per_depth", kProbes)
      .arr("replan_by_depth", depth_rows)
      .num("feed_days", feed_days)
      .num("series", kinds.size())
      .num("unbounded_samples", unbounded.sample_count())
      .num("unbounded_bytes", unbounded_bytes)
      .num("retained_samples", rolling_store.sample_count())
      .num("retained_bytes", rolling_bytes)
      .num("evicted_samples", rolling_store.evicted_samples())
      .num("footprint_reduction_pct", footprint_reduction * 100.0)
      .num("record_ns_per_window_2d_retention", record_ns_2d)
      .num("record_ns_per_window_16d_retention", record_ns_16d)
      .num("retention_cost_ratio", retention_ratio)
      .boolean("acceptance", pass);
  if (json.write("BENCH_serve_incremental.json")) {
    bench::note("wrote BENCH_serve_incremental.json");
  } else {
    bench::note("WARNING: could not write BENCH_serve_incremental.json");
  }
  return pass ? 0 : 1;
}
