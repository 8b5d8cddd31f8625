// Central store of windowed metric series.
//
// The production system behind the paper ingested ~3 GB/s of counters into
// 120 s windows (paper §III). This store is the offline analogue: the
// simulator pushes window aggregates, the planning code queries series by
// (datacenter, pool, server, metric). Pool-scope series model the paper's
// "1-minute average across servers in the pool" data points.
//
// Storage is columnar (see time_series.h): stride-encoded series cost 8
// bytes per sample, and readers get zero-copy span views. Parallel
// producers batch samples into MetricBuffers that merge() replays grouped
// per key — one hash lookup and one capacity check per series per batch
// instead of per sample — preserving the fixed-shard-order determinism the
// parallel fleet stepper relies on. An opt-in rolling retention bounds
// live feeds to a trailing window of raw samples; older samples are
// dropped.
#pragma once

#include <unordered_map>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/time_series.h"

namespace headroom::telemetry {

/// Order-preserving buffer of window samples, merged into a MetricStore at
/// a barrier. Parallel producers (the fleet simulator's shards) each fill
/// their own buffer; replaying the buffers in a fixed producer order makes
/// the merged store identical to what serial recording would have built.
class MetricBuffer {
 public:
  struct Entry {
    SeriesKey key;
    SimTime window_start = 0;
    double value = 0.0;
  };

  void record(const SeriesKey& key, SimTime window_start, double value) {
    entries_.push_back({key, window_start, value});
  }

  /// Pre-allocates for `n` entries (e.g. the per-window entry count of a
  /// simulator shard, known from the topology).
  void reserve(std::size_t n) { entries_.reserve(n); }

  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  /// Drops the entries but keeps the allocation for the next window.
  void clear() noexcept { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

class MetricStore {
 public:
  MetricStore() = default;
  /// Not copyable: merge plans cache raw pointers into this store's series
  /// map, which a copy would carry along and then append through into the
  /// original. Moves are fine — map nodes (and so the cached pointers)
  /// survive a move intact.
  MetricStore(const MetricStore&) = delete;
  MetricStore& operator=(const MetricStore&) = delete;
  MetricStore(MetricStore&&) = default;
  MetricStore& operator=(MetricStore&&) = default;

  /// Appends one window sample to the keyed series (windows must arrive in
  /// time order per key).
  void record(const SeriesKey& key, SimTime window_start, double value);

  /// Merges a buffer as if each entry had been record()ed in insertion
  /// order. Entries are grouped per key first and each series' run appended
  /// in one shot; since per-key order is preserved and appends to distinct
  /// series commute, the result is bit-identical to entry-by-entry replay.
  void merge(const MetricBuffer& buffer);

  /// Series lookup; returns an empty static series when absent.
  [[nodiscard]] const TimeSeries& series(const SeriesKey& key) const;
  [[nodiscard]] bool contains(const SeriesKey& key) const;
  [[nodiscard]] std::size_t series_count() const noexcept { return series_.size(); }
  /// Total stored samples across all series.
  [[nodiscard]] std::size_t sample_count() const noexcept { return samples_; }

  /// Convenience for pool-scope aggregates.
  [[nodiscard]] const TimeSeries& pool_series(std::uint32_t datacenter,
                                              std::uint32_t pool,
                                              MetricKind metric) const;

  /// All keys currently stored, ordered by (datacenter, pool, server,
  /// metric) — deterministic regardless of insertion order.
  [[nodiscard]] std::vector<SeriesKey> keys() const;

  /// Joined (x,y) scatter of two pool-scope metrics — the exact input shape
  /// for the paper's linear/quadratic fits.
  [[nodiscard]] AlignedPair pool_scatter(std::uint32_t datacenter,
                                         std::uint32_t pool, MetricKind x,
                                         MetricKind y) const;

  // --- Rolling retention (opt-in, for unbounded live feeds) ----------------
  /// Bounds the store to the trailing `lookback_seconds` of every series:
  /// after each append batch, samples whose window start falls before
  /// (newest window seen − lookback) are evicted, so resident memory is
  /// O(lookback) under an endless feed instead of O(history). Evicted
  /// samples are dropped and counted (evicted_samples()). A sweep visits
  /// every series, and TimeSeries::drop_front is amortized O(1) per
  /// evicted sample, so a window's sweep costs O(series) however long the
  /// lookback. 0 disables (the default — batch runs keep full history;
  /// golden outputs depend on it). Eviction invalidates outstanding
  /// values() spans and SeriesViews.
  void set_retention(SimTime lookback_seconds);
  [[nodiscard]] SimTime retention() const noexcept { return retention_; }
  /// Samples evicted by the retention sweep since construction/clear().
  [[nodiscard]] std::size_t evicted_samples() const noexcept {
    return evicted_samples_;
  }
  /// Eviction cutoff: every sample with window start >= this is still
  /// resident (0 until the first sweep). The query layer's raw-coverage
  /// boundary.
  [[nodiscard]] SimTime evicted_before() const noexcept {
    return evicted_before_;
  }

  /// Lower bound on the retention sweep: samples whose window start is at
  /// or after the floor survive eviction regardless of retention. Live
  /// pipelines advance this to their slowest read cursor, so a feed that
  /// arrives faster than it is consumed (e.g. a complete recording bulk-
  /// ingested in one poll) can never evict windows a reader still needs.
  /// Raising the floor re-arms any sweep the old floor was holding back;
  /// unset by default (plain retention is watermark-driven).
  void set_eviction_floor(SimTime floor);
  /// Current floor; meaningful only after set_eviction_floor().
  [[nodiscard]] SimTime eviction_floor() const noexcept { return floor_; }

  /// Capacity hint: pre-reserves `additional_windows` more samples in every
  /// existing series, and makes new series start with that capacity. Called
  /// by the simulator with its remaining window count to kill realloc churn
  /// (and, incidentally, keep values() spans stable over the run).
  void reserve_additional(std::size_t additional_windows);

  void clear();

 private:
  /// Finds or creates the series for `key`, applying the new-series
  /// capacity hint and an additional `run_hint` (the length of the
  /// contiguous same-key run about to be appended).
  TimeSeries& resolve_series(const SeriesKey& key, std::size_t run_hint);
  /// Advances the retention watermark and, when the cutoff moved, sweeps
  /// every series: drops samples older than the cutoff.
  void note_window(SimTime window_start);

  std::unordered_map<SeriesKey, TimeSeries, SeriesKeyHash> series_;
  std::size_t samples_ = 0;
  std::size_t new_series_reserve_ = 0;
  SimTime retention_ = 0;           ///< 0 = keep full history.
  SimTime watermark_ = 0;           ///< Newest window start seen.
  bool watermark_valid_ = false;
  SimTime floor_ = 0;               ///< Eviction never crosses this time.
  bool floor_valid_ = false;
  SimTime evicted_before_ = 0;      ///< Last cutoff already swept.
  std::size_t evicted_samples_ = 0;

  // Memoized merge plans. A simulator shard refills the same MetricBuffer
  // with the same key sequence every window, so merge() caches, per buffer
  // identity, the resolved series pointer for each entry position. A plan
  // entry is used only when its recorded key matches the incoming entry's
  // key (checked per entry, self-healing on mismatch), so plans are never
  // trusted stale — a steady-state barrier merge does zero hash lookups.
  // Series pointers stay valid because unordered_map nodes are stable and
  // series are never erased outside clear().
  struct MergePlanEntry {
    SeriesKey key;
    TimeSeries* series = nullptr;
  };
  std::unordered_map<const MetricBuffer*, std::vector<MergePlanEntry>>
      merge_plans_;
};

}  // namespace headroom::telemetry
