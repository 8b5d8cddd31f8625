// Time-ordered series of windowed samples plus alignment helpers.
//
// Storage is columnar (structure-of-arrays): the value column is a dense
// `std::vector<double>` and the time column is elided entirely while the
// samples arrive on a fixed cadence — the simulator's case, where every
// append lands exactly one window after the previous one. A stride-encoded
// series stores `start + i * stride` instead of 8 bytes of timestamp per
// sample, halving the footprint at day-scale resolutions; series with
// irregular cadence (sliced traces, hand-built test data) transparently
// fall back to an explicit time column on first mismatch.
//
// Readers get zero-copy access: `values()` / `values_between()` return
// `std::span` views over the value column and `slice()` returns a
// `SeriesView` — an (offset, length) window onto the parent series. Views
// index through the parent, so they stay valid across appends (appends only
// extend the series past the view); a `values()` span additionally pins the
// underlying array and is invalidated by any append that reallocates it
// (appends within `reserve()`d capacity preserve it).
//
// Eviction (`drop_front`) is amortized O(1): it advances a head offset past
// the dropped samples instead of erasing them, and compacts the dead prefix
// out of the columns only once it reaches a fixed fraction of the live
// size. A retention sweep that drops one sample per window therefore costs
// a few element moves per sample, not a move of the whole resident series.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace headroom::telemetry {

/// Seconds since the start of the simulated epoch.
using SimTime = std::int64_t;

/// One aggregated window of a metric (materialized on access; the columnar
/// store never holds this struct).
struct WindowSample {
  SimTime window_start = 0;  ///< Inclusive start of the window (seconds).
  double value = 0.0;        ///< Window aggregate (mean, or P95 for latency).
};

class SeriesView;

/// Append-only, time-ordered sample sequence with columnar storage.
class TimeSeries {
 public:
  void append(SimTime window_start, double value);

  /// Pre-allocates the value column (and the time column, when already in
  /// explicit-time mode) for at least `n` total samples. Growing past
  /// capacity() first compacts away the evicted prefix.
  void reserve(std::size_t n);
  /// Samples the series can hold before an append reallocates (and
  /// invalidates outstanding `values()` spans): the value column's
  /// capacity less the evicted prefix still sitting at its front.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return values_.capacity() - head_;
  }
  /// Heap bytes held by the columns (footprint gauge for the benches):
  /// 8 bytes/sample while stride-encoded, 16 after a fallback.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return values_.capacity() * sizeof(double) +
           times_.capacity() * sizeof(SimTime);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return values_.size() - head_;
  }
  [[nodiscard]] bool empty() const noexcept { return values_.size() == head_; }

  [[nodiscard]] SimTime time_at(std::size_t i) const noexcept {
    return times_.empty() ? start_ + static_cast<SimTime>(i) * stride_
                          : times_[head_ + i];
  }
  [[nodiscard]] double value_at(std::size_t i) const noexcept {
    return values_[head_ + i];
  }
  /// Bounds-checked sample materialization (by value: there is no stored
  /// WindowSample to reference).
  [[nodiscard]] WindowSample at(std::size_t i) const;

  /// True while the time column is elided (all samples on one stride).
  /// Series of fewer than two samples are trivially regular.
  [[nodiscard]] bool regular() const noexcept { return times_.empty(); }
  /// First window start (0 when empty).
  [[nodiscard]] SimTime start() const noexcept { return start_; }
  /// Fixed cadence of a regular series (0 until two samples establish it,
  /// or when the series has fallen back to explicit times).
  [[nodiscard]] SimTime stride() const noexcept {
    return times_.empty() ? stride_ : 0;
  }

  /// All values, in time order — a zero-copy view over the value column.
  [[nodiscard]] std::span<const double> values() const noexcept {
    return std::span<const double>(values_).subspan(head_);
  }
  /// Values whose window start lies in [from, to) — a zero-copy sub-view.
  [[nodiscard]] std::span<const double> values_between(SimTime from,
                                                       SimTime to) const;
  /// Sub-series view over the samples in [from, to).
  [[nodiscard]] SeriesView slice(SimTime from, SimTime to) const;
  /// View over the whole series.
  [[nodiscard]] SeriesView view() const;

  /// Drops the oldest `n` samples (all of them when `n >= size()`) and
  /// returns how many were dropped. A stride-encoded series stays
  /// stride-encoded — the start advances by `n` strides — so retention
  /// eviction under a live feed keeps the 8-byte/sample representation.
  /// Amortized O(n), independent of the resident length: the dropped
  /// samples stay behind the head offset until the dead prefix reaches
  /// 1/kCompactDivisor of the live size, and only then are the live
  /// samples moved to the front. Invalidates outstanding values() spans
  /// and SeriesViews (offsets shift); capacity is retained for reuse by
  /// later appends.
  std::size_t drop_front(std::size_t n);

  /// Index of the first sample with window_start >= `bound` (== size()
  /// when every sample is earlier). The count a retention sweep drops.
  [[nodiscard]] std::size_t first_index_at_or_after(SimTime bound) const;

 private:
  /// drop_front compacts once the dead prefix reaches 1/kCompactDivisor of
  /// the live samples. Each compaction moves the live samples once per
  /// live/8 drops, so a dropped sample costs ~8 element moves however long
  /// the series is (amortized O(1)); and the dead prefix never exceeds an
  /// eighth of the live size, so memory stays flat under a steady
  /// append-and-evict feed instead of spilling into untouched capacity.
  static constexpr std::size_t kCompactDivisor = 8;

  /// [first, last) index range of samples with window_start in [from, to).
  [[nodiscard]] std::pair<std::size_t, std::size_t> index_range(
      SimTime from, SimTime to) const;
  /// Moves the live samples to the front of the columns (head_ = 0).
  void compact();

  // Both columns hold the evicted prefix [0, head_) ahead of the live
  // samples; every accessor indexes relative to head_.
  std::vector<double> values_;
  std::vector<SimTime> times_;  ///< Empty while stride-encoded.
  std::size_t head_ = 0;        ///< Evicted samples not yet compacted away.
  SimTime start_ = 0;           ///< First live window start.
  SimTime stride_ = 0;     ///< Established by the second append.
  SimTime last_time_ = 0;  ///< Cached time_at(size-1) for the append path.
};

/// Zero-copy (offset, length) window onto a TimeSeries. Indexes through the
/// parent series, so it remains valid across parent appends (which only add
/// samples past the view); the parent must outlive the view.
class SeriesView {
 public:
  SeriesView() = default;
  SeriesView(const TimeSeries* series, std::size_t offset,
             std::size_t size) noexcept
      : series_(series), offset_(offset), size_(size) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] SimTime time_at(std::size_t i) const noexcept {
    return series_ == nullptr ? 0 : series_->time_at(offset_ + i);
  }
  [[nodiscard]] double value_at(std::size_t i) const noexcept {
    return series_ == nullptr ? 0.0 : series_->value_at(offset_ + i);
  }
  [[nodiscard]] WindowSample at(std::size_t i) const;

  /// The viewed values — a span over the parent's value column (subject to
  /// the same reallocation rule as TimeSeries::values()).
  [[nodiscard]] std::span<const double> values() const noexcept {
    return series_ == nullptr ? std::span<const double>{}
                              : series_->values().subspan(offset_, size_);
  }

  /// True when the viewed samples sit on the parent's fixed stride.
  [[nodiscard]] bool regular() const noexcept {
    return series_ == nullptr || series_->regular();
  }
  /// Parent stride (0 when irregular or not yet established).
  [[nodiscard]] SimTime stride() const noexcept {
    return series_ == nullptr ? 0 : series_->stride();
  }

 private:
  const TimeSeries* series_ = nullptr;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

/// A pair of equal-length vectors from two series joined on window start —
/// the (x, y) scatter the paper's fits consume (e.g. RPS vs %CPU).
struct AlignedPair {
  std::vector<double> x;
  std::vector<double> y;
};

/// Inner-joins two series on window_start (both must be time-ordered).
/// When both sides are stride-encoded with the same cadence the join is a
/// pair of bulk column copies instead of a sample-by-sample walk.
[[nodiscard]] AlignedPair align(const SeriesView& x, const SeriesView& y);
[[nodiscard]] AlignedPair align(const TimeSeries& x, const TimeSeries& y);

}  // namespace headroom::telemetry
