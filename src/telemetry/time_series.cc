#include "telemetry/time_series.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>

namespace headroom::telemetry {

namespace {

/// ceil(a / b) for b > 0, correct for negative a.
constexpr SimTime ceil_div(SimTime a, SimTime b) noexcept {
  return a >= 0 ? (a + b - 1) / b : -(-a / b);
}

}  // namespace

void TimeSeries::append(SimTime window_start, double value) {
  const std::size_t n = size();
  if (n > 0 && window_start <= last_time_) {
    throw std::invalid_argument("TimeSeries::append: out-of-order window");
  }
  if (times_.empty()) {
    if (n == 0) {
      start_ = window_start;
    } else if (n == 1) {
      stride_ = window_start - start_;
    } else if (window_start != last_time_ + stride_) {
      // Cadence broke: materialize the explicit time column and fall back.
      // The column mirrors the value column index for index, evicted
      // prefix included (those times extrapolate the stride backwards and
      // are never read), so the append moves no value and spans survive.
      const std::size_t total = values_.size();
      times_.reserve(std::max(values_.capacity(), total + 1));
      for (std::size_t i = 0; i < total; ++i) {
        times_.push_back(start_ + (static_cast<SimTime>(i) -
                                   static_cast<SimTime>(head_)) *
                                      stride_);
      }
      times_.push_back(window_start);
    }
  } else {
    times_.push_back(window_start);
  }
  values_.push_back(value);
  last_time_ = window_start;
}

void TimeSeries::reserve(std::size_t n) {
  if (n > capacity()) compact();
  values_.reserve(head_ + n);
  if (!times_.empty()) times_.reserve(head_ + n);
}

void TimeSeries::compact() {
  const auto dead = static_cast<std::ptrdiff_t>(head_);
  values_.erase(values_.begin(), values_.begin() + dead);
  if (!times_.empty()) times_.erase(times_.begin(), times_.begin() + dead);
  head_ = 0;
}

WindowSample TimeSeries::at(std::size_t i) const {
  if (i >= size()) {
    throw std::out_of_range("TimeSeries::at: index out of range");
  }
  return {time_at(i), value_at(i)};
}

std::pair<std::size_t, std::size_t> TimeSeries::index_range(SimTime from,
                                                            SimTime to) const {
  const std::size_t n = size();
  if (n == 0 || to <= from) return {0, 0};
  if (!times_.empty()) {
    const auto live = times_.begin() + static_cast<std::ptrdiff_t>(head_);
    const auto first = std::lower_bound(live, times_.end(), from);
    const auto last = std::lower_bound(first, times_.end(), to);
    return {static_cast<std::size_t>(first - live),
            static_cast<std::size_t>(last - live)};
  }
  if (stride_ <= 0) {  // single sample (or degenerate): test it directly
    return start_ >= from && start_ < to ? std::pair<std::size_t, std::size_t>{0, n}
                                         : std::pair<std::size_t, std::size_t>{0, 0};
  }
  // Bounds are handled by comparison before any subtraction so that
  // sentinel-style queries (e.g. values_between(t, INT64_MAX)) cannot
  // overflow: once a bound is known to lie inside [start_, last_time_],
  // the differences fed to ceil_div fit by construction.
  const SimTime last_time = time_at(n - 1);
  const auto first_at_or_after = [&](SimTime bound) -> std::size_t {
    if (bound <= start_) return 0;
    if (bound > last_time) return n;
    return static_cast<std::size_t>(ceil_div(bound - start_, stride_));
  };
  return {first_at_or_after(from), first_at_or_after(to)};
}

std::span<const double> TimeSeries::values_between(SimTime from,
                                                   SimTime to) const {
  const auto [first, last] = index_range(from, to);
  return values().subspan(first, last - first);
}

SeriesView TimeSeries::slice(SimTime from, SimTime to) const {
  const auto [first, last] = index_range(from, to);
  return {this, first, last - first};
}

SeriesView TimeSeries::view() const { return {this, 0, size()}; }

std::size_t TimeSeries::drop_front(std::size_t n) {
  const std::size_t live = size();
  if (n == 0 || live == 0) return 0;
  if (n >= live) {
    values_.clear();
    times_.clear();
    head_ = 0;
    start_ = 0;
    stride_ = 0;
    last_time_ = 0;
    return live;
  }
  head_ += n;
  if (times_.empty()) {
    start_ += static_cast<SimTime>(n) * stride_;
    // A single survivor re-establishes its cadence on the next append,
    // exactly like a freshly built one-sample series.
    if (size() == 1) stride_ = 0;
  } else {
    start_ = times_[head_];
  }
  if (head_ * kCompactDivisor >= size()) compact();
  return n;
}

std::size_t TimeSeries::first_index_at_or_after(SimTime bound) const {
  // index_range()'s lower bound with a -inf start; the min() sentinel takes
  // the bound<=start_ early-out, so no subtraction can overflow.
  return index_range(std::numeric_limits<SimTime>::min(), bound).second;
}

WindowSample SeriesView::at(std::size_t i) const {
  if (series_ == nullptr || i >= size_) {
    throw std::out_of_range("SeriesView::at: index out of range");
  }
  return {time_at(i), value_at(i)};
}

AlignedPair align(const SeriesView& x, const SeriesView& y) {
  AlignedPair out;
  if (x.empty() || y.empty()) return out;

  // Fast path: both sides stride-encoded on the same cadence. Either their
  // window starts are congruent mod the stride — in which case the join is
  // a contiguous overlap copied column-to-column — or they never match.
  const SimTime s = x.stride();
  if (s > 0 && s == y.stride()) {
    const SimTime x0 = x.time_at(0);
    const SimTime y0 = y.time_at(0);
    if ((x0 - y0) % s != 0) return out;
    const SimTime t0 = std::max(x0, y0);
    const SimTime t1 = std::min(x.time_at(x.size() - 1),
                                y.time_at(y.size() - 1));
    if (t0 > t1) return out;
    const auto n = static_cast<std::size_t>((t1 - t0) / s + 1);
    const auto xi = static_cast<std::size_t>((t0 - x0) / s);
    const auto yi = static_cast<std::size_t>((t0 - y0) / s);
    const std::span<const double> xv = x.values().subspan(xi, n);
    const std::span<const double> yv = y.values().subspan(yi, n);
    out.x.assign(xv.begin(), xv.end());
    out.y.assign(yv.begin(), yv.end());
    return out;
  }

  std::size_t i = 0;
  std::size_t j = 0;
  while (i < x.size() && j < y.size()) {
    const SimTime tx = x.time_at(i);
    const SimTime ty = y.time_at(j);
    if (tx < ty) {
      ++i;
    } else if (ty < tx) {
      ++j;
    } else {
      out.x.push_back(x.value_at(i));
      out.y.push_back(y.value_at(j));
      ++i;
      ++j;
    }
  }
  return out;
}

AlignedPair align(const TimeSeries& x, const TimeSeries& y) {
  return align(x.view(), y.view());
}

}  // namespace headroom::telemetry
