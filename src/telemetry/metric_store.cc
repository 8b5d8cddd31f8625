#include "telemetry/metric_store.h"

#include <algorithm>
#include <stdexcept>

namespace headroom::telemetry {

namespace {

/// Largest window start in a merged batch (feeds the retention watermark).
SimTime max_window_start(const std::vector<MetricBuffer::Entry>& entries) {
  SimTime max = entries.front().window_start;
  for (const MetricBuffer::Entry& e : entries) {
    if (e.window_start > max) max = e.window_start;
  }
  return max;
}

void sort_keys(std::vector<SeriesKey>& keys) {
  std::sort(keys.begin(), keys.end());  // SeriesKey's canonical operator<
}

/// Grows `series` for `extra` more samples without defeating the vector's
/// geometric growth (a bare reserve(size+extra) every window would force a
/// copy per window).
void reserve_for_append(TimeSeries& series, std::size_t extra) {
  const std::size_t needed = series.size() + extra;
  if (needed > series.capacity()) {
    series.reserve(std::max(needed, 2 * series.capacity()));
  }
}

}  // namespace

void MetricStore::record(const SeriesKey& key, SimTime window_start,
                         double value) {
  TimeSeries& series = series_[key];
  if (series.empty() && new_series_reserve_ > 0) {
    series.reserve(new_series_reserve_);
  }
  series.append(window_start, value);
  ++samples_;
  note_window(window_start);
}

void MetricStore::note_window(SimTime window_start) {
  if (!watermark_valid_ || window_start > watermark_) {
    watermark_ = window_start;
    watermark_valid_ = true;
  }
  if (retention_ <= 0 || !watermark_valid_) return;
  SimTime cutoff = watermark_ - retention_;
  if (floor_valid_ && floor_ < cutoff) cutoff = floor_;
  if (cutoff <= evicted_before_) return;
  evicted_before_ = cutoff;
  for (auto& [key, series] : series_) {
    const std::size_t drop = series.first_index_at_or_after(cutoff);
    if (drop == 0) continue;
    series.drop_front(drop);
    samples_ -= drop;
    evicted_samples_ += drop;
  }
}

void MetricStore::set_retention(SimTime lookback_seconds) {
  if (lookback_seconds < 0) {
    throw std::invalid_argument("MetricStore::set_retention: negative lookback");
  }
  retention_ = lookback_seconds;
  // Sweep immediately so enabling retention on a grown store takes effect
  // without waiting for the next append.
  if (watermark_valid_) note_window(watermark_);
}

void MetricStore::set_eviction_floor(SimTime floor) {
  if (floor < 0) {
    throw std::invalid_argument(
        "MetricStore::set_eviction_floor: negative floor");
  }
  floor_ = floor;
  floor_valid_ = true;
  if (watermark_valid_) note_window(watermark_);
}

TimeSeries& MetricStore::resolve_series(const SeriesKey& key,
                                        std::size_t run_hint) {
  TimeSeries& series = series_[key];
  if (series.empty() && new_series_reserve_ > 0) {
    series.reserve(std::max(new_series_reserve_, run_hint));
  } else {
    reserve_for_append(series, run_hint);
  }
  return series;
}

void MetricStore::merge(const MetricBuffer& buffer) {
  const std::vector<MetricBuffer::Entry>& entries = buffer.entries();
  if (entries.empty()) return;

  if (merge_plans_.size() > 64) merge_plans_.clear();  // transient producers
  std::vector<MergePlanEntry>& plan = merge_plans_[&buffer];
  plan.resize(entries.size());
  // Appends are counted in a local (register-friendly in the hot loop) and
  // flushed even on a throw, so a rejected entry — out-of-order time from a
  // misbehaving producer — cannot leave sample_count() ahead of what the
  // series actually hold.
  std::size_t appended = 0;
  try {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const MetricBuffer::Entry& e = entries[i];
      MergePlanEntry& pe = plan[i];
      if (pe.series == nullptr || !(pe.key == e.key)) {
        if (i > 0 && e.key == entries[i - 1].key) {
          // Same-key run (series-major ingestion): reuse the previous
          // resolution instead of re-hashing.
          pe.series = plan[i - 1].series;
        } else {
          std::size_t run = 1;
          while (i + run < entries.size() && entries[i + run].key == e.key) {
            ++run;
          }
          pe.series = &resolve_series(e.key, run);
        }
        pe.key = e.key;
      }
      pe.series->append(e.window_start, e.value);
      ++appended;
    }
  } catch (...) {
    samples_ += appended;
    throw;
  }
  samples_ += appended;
  note_window(max_window_start(entries));
}

const TimeSeries& MetricStore::series(const SeriesKey& key) const {
  static const TimeSeries kEmpty;
  const auto it = series_.find(key);
  return it == series_.end() ? kEmpty : it->second;
}

bool MetricStore::contains(const SeriesKey& key) const {
  return series_.contains(key);
}

const TimeSeries& MetricStore::pool_series(std::uint32_t datacenter,
                                           std::uint32_t pool,
                                           MetricKind metric) const {
  return series({datacenter, pool, SeriesKey::kPoolScope, metric});
}

std::vector<SeriesKey> MetricStore::keys() const {
  std::vector<SeriesKey> out;
  out.reserve(series_.size());
  for (const auto& [key, value] : series_) out.push_back(key);
  sort_keys(out);
  return out;
}

AlignedPair MetricStore::pool_scatter(std::uint32_t datacenter,
                                      std::uint32_t pool, MetricKind x,
                                      MetricKind y) const {
  return align(pool_series(datacenter, pool, x),
               pool_series(datacenter, pool, y));
}

void MetricStore::reserve_additional(std::size_t additional_windows) {
  new_series_reserve_ = additional_windows;
  // Geometric-growth-aware (not an exact reserve): repeated calls — the
  // RSM planner runs the simulator in day-long observe() slices — must not
  // reallocate-and-copy every series on every slice.
  for (auto& [key, series] : series_) {
    reserve_for_append(series, additional_windows);
  }
}

void MetricStore::clear() {
  series_.clear();
  merge_plans_.clear();  // cached pointers die with the series
  samples_ = 0;
  new_series_reserve_ = 0;
  retention_ = 0;
  watermark_ = 0;
  watermark_valid_ = false;
  floor_ = 0;
  floor_valid_ = false;
  evicted_before_ = 0;
  evicted_samples_ = 0;
}

}  // namespace headroom::telemetry
