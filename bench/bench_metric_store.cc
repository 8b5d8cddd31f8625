// Telemetry storage microbench: columnar MetricStore vs the pre-refactor
// AoS layout (vector<WindowSample> per key, entry-by-entry merge), at the
// day-scale shape the paper's pipeline lives on — minute-windowed counters
// over many series for a week (§II, §III).
//
// Reports append and merge throughput and resident bytes per sample, and
// writes the same numbers to BENCH_metric_store.json so the perf trajectory
// has machine-readable data points.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "telemetry/metric_store.h"

namespace {

using Clock = std::chrono::steady_clock;
using headroom::telemetry::MetricBuffer;
using headroom::telemetry::MetricKind;
using headroom::telemetry::MetricStore;
using headroom::telemetry::SeriesKey;
using headroom::telemetry::SeriesKeyHash;
using headroom::telemetry::SimTime;
using headroom::telemetry::WindowSample;

// Day-scale shape: a 9-DC standard fleet's pool-scope series (9 DCs x 7
// pools x 11 metrics) plus a few per-server series, one sample per series
// per 120 s window, 7 days.
constexpr std::size_t kSeries = 800;
constexpr std::size_t kWindows = 7 * 720;
constexpr SimTime kWindowSeconds = 120;

/// The pre-refactor storage layout, reproduced verbatim for the baseline:
/// one vector of 16-byte (time, value) structs per key, per-entry merge.
class AosStore {
 public:
  void record(const SeriesKey& key, SimTime t, double value) {
    series_[key].push_back({t, value});
    ++samples_;
  }
  void merge(const MetricBuffer& buffer) {
    for (const MetricBuffer::Entry& e : buffer.entries()) {
      record(e.key, e.window_start, e.value);
    }
  }
  [[nodiscard]] std::size_t sample_count() const noexcept { return samples_; }
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = 0;
    for (const auto& [key, samples] : series_) {
      bytes += samples.capacity() * sizeof(WindowSample);
    }
    return bytes;
  }

 private:
  std::unordered_map<SeriesKey, std::vector<WindowSample>, SeriesKeyHash> series_;
  std::size_t samples_ = 0;
};

std::vector<SeriesKey> make_keys() {
  std::vector<SeriesKey> keys;
  keys.reserve(kSeries);
  for (std::uint32_t i = 0; i < kSeries; ++i) {
    keys.push_back({i / 88, (i / 11) % 8, SeriesKey::kPoolScope,
                    static_cast<MetricKind>(i % 11)});
  }
  return keys;
}

double synthetic_value(std::size_t series, std::size_t window) {
  // Cheap deterministic mix, spread over a plausible counter range.
  std::uint64_t h = series * 0x9E3779B97F4A7C15ull + window * 0xBF58476D1CE4E5B9ull;
  h ^= h >> 31;
  return 1.0 + static_cast<double>(h % 100000) / 250.0;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename Store>
double bench_append(Store& store, const std::vector<SeriesKey>& keys) {
  const auto t0 = Clock::now();
  for (std::size_t w = 0; w < kWindows; ++w) {
    const SimTime t = static_cast<SimTime>(w) * kWindowSeconds;
    for (std::size_t s = 0; s < keys.size(); ++s) {
      store.record(keys[s], t, synthetic_value(s, w));
    }
  }
  return seconds_since(t0);
}

template <typename Store>
double bench_merge(Store& store, const std::vector<SeriesKey>& keys) {
  // The parallel stepper's shape: one buffer per window barrier, every key
  // once, cleared after each merge.
  MetricBuffer buffer;
  buffer.reserve(keys.size());
  const auto t0 = Clock::now();
  for (std::size_t w = 0; w < kWindows; ++w) {
    const SimTime t = static_cast<SimTime>(w) * kWindowSeconds;
    buffer.clear();
    for (std::size_t s = 0; s < keys.size(); ++s) {
      buffer.record(keys[s], t, synthetic_value(s, w));
    }
    store.merge(buffer);
  }
  return seconds_since(t0);
}

}  // namespace

int main() {
  using namespace headroom;
  bench::header("Telemetry storage — columnar store vs AoS baseline",
                "acceptance: >= 2x merge/append throughput or >= 40% lower "
                "bytes/sample at day-scale resolution");

  const std::vector<SeriesKey> keys = make_keys();
  const auto total = static_cast<double>(kSeries * kWindows);
  std::printf("  shape: %zu series x %zu windows = %.0f samples\n", kSeries,
              kWindows, total);

  // --- Append throughput ----------------------------------------------------
  AosStore aos_append;
  const double aos_append_s = bench_append(aos_append, keys);
  MetricStore col_append;
  const double col_append_s = bench_append(col_append, keys);

  // --- Merge throughput (window-barrier buffers) ----------------------------
  AosStore aos_merge;
  const double aos_merge_s = bench_merge(aos_merge, keys);
  MetricStore col_merge;
  const double col_merge_s = bench_merge(col_merge, keys);

  // --- Footprint ------------------------------------------------------------
  std::size_t col_bytes = 0;
  std::size_t regular_series = 0;
  for (const SeriesKey& key : col_merge.keys()) {
    col_bytes += col_merge.series(key).memory_bytes();
    regular_series += col_merge.series(key).regular() ? 1 : 0;
  }
  const std::size_t aos_bytes = aos_merge.memory_bytes();
  const double aos_bps = static_cast<double>(aos_bytes) / total;
  const double col_bps = static_cast<double>(col_bytes) / total;

  const double append_speedup = aos_append_s / col_append_s;
  const double merge_speedup = aos_merge_s / col_merge_s;
  std::printf("  append: AoS %.3f s, columnar %.3f s -> %.2fx  (%.1f Msamples/s)\n",
              aos_append_s, col_append_s, append_speedup,
              total / col_append_s / 1e6);
  std::printf("  merge:  AoS %.3f s, columnar %.3f s -> %.2fx  (%.1f Msamples/s)\n",
              aos_merge_s, col_merge_s, merge_speedup,
              total / col_merge_s / 1e6);
  std::printf("  footprint: AoS %.2f B/sample, columnar %.2f B/sample "
              "(-%.1f%%), %zu/%zu series stride-encoded\n",
              aos_bps, col_bps, 100.0 * (1.0 - col_bps / aos_bps),
              regular_series, col_merge.series_count());
  std::printf("  footprint @ 1M samples: AoS %.1f MiB, columnar %.1f MiB\n",
              aos_bps * 1e6 / (1024.0 * 1024.0),
              col_bps * 1e6 / (1024.0 * 1024.0));

  // --- Machine-readable record ---------------------------------------------
  bench::JsonObject aos_json;
  aos_json.num("append_seconds", aos_append_s)
      .num("merge_seconds", aos_merge_s)
      .num("append_msamples_per_s", total / aos_append_s / 1e6)
      .num("merge_msamples_per_s", total / aos_merge_s / 1e6)
      .num("bytes_per_sample", aos_bps);
  bench::JsonObject col_json;
  col_json.num("append_seconds", col_append_s)
      .num("merge_seconds", col_merge_s)
      .num("append_msamples_per_s", total / col_append_s / 1e6)
      .num("merge_msamples_per_s", total / col_merge_s / 1e6)
      .num("bytes_per_sample", col_bps)
      .num("stride_encoded_series", regular_series);
  bench::JsonObject json;
  json.str("bench", "metric_store")
      .num("series", kSeries)
      .num("windows", kWindows)
      .num("samples", static_cast<std::size_t>(total))
      .obj("aos", aos_json)
      .obj("columnar", col_json)
      .num("append_speedup", append_speedup)
      .num("merge_speedup", merge_speedup)
      .num("footprint_reduction_pct", 100.0 * (1.0 - col_bps / aos_bps));

  const bool acceptance = merge_speedup >= 2.0 || append_speedup >= 2.0 ||
                          col_bps <= 0.6 * aos_bps;
  json.boolean("acceptance", acceptance);
  if (json.write("BENCH_metric_store.json")) {
    bench::note("wrote BENCH_metric_store.json");
  } else {
    bench::note("WARNING: could not write BENCH_metric_store.json");
  }
  bench::note(acceptance ? "acceptance threshold met ✓"
                         : "acceptance threshold MISSED ✗");
  return acceptance ? 0 : 1;
}
