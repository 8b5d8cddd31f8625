#include "telemetry/time_series.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace headroom::telemetry {
namespace {

TEST(TimeSeries, AppendsInOrder) {
  TimeSeries s;
  s.append(0, 1.0);
  s.append(120, 2.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.at(1).window_start, 120);
  EXPECT_DOUBLE_EQ(s.at(1).value, 2.0);
}

TEST(TimeSeries, RejectsOutOfOrderAppend) {
  TimeSeries s;
  s.append(120, 1.0);
  EXPECT_THROW(s.append(120, 2.0), std::invalid_argument);  // duplicate
  EXPECT_THROW(s.append(0, 2.0), std::invalid_argument);    // backwards
}

TEST(TimeSeries, RejectsOutOfOrderAfterStrideFallback) {
  TimeSeries s;
  s.append(0, 1.0);
  s.append(120, 2.0);
  s.append(300, 3.0);  // breaks the stride -> explicit times
  ASSERT_FALSE(s.regular());
  EXPECT_THROW(s.append(300, 4.0), std::invalid_argument);
  EXPECT_THROW(s.append(200, 4.0), std::invalid_argument);
}

TEST(TimeSeries, AtThrowsOutOfRange) {
  TimeSeries s;
  s.append(0, 1.0);
  EXPECT_THROW((void)s.at(1), std::out_of_range);
}

TEST(TimeSeries, DetectsRegularStride) {
  TimeSeries s;
  for (SimTime t = 60; t < 60 + 5 * 120; t += 120) {
    s.append(t, static_cast<double>(t));
  }
  EXPECT_TRUE(s.regular());
  EXPECT_EQ(s.start(), 60);
  EXPECT_EQ(s.stride(), 120);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s.time_at(i), 60 + static_cast<SimTime>(i) * 120);
  }
}

TEST(TimeSeries, FallsBackToExplicitTimesOnCadenceBreak) {
  TimeSeries s;
  s.append(0, 1.0);
  s.append(120, 2.0);
  s.append(240, 3.0);
  ASSERT_TRUE(s.regular());
  s.append(500, 4.0);  // off-cadence
  EXPECT_FALSE(s.regular());
  EXPECT_EQ(s.stride(), 0);
  // Every timestamp, including the pre-fallback ones, survives.
  EXPECT_EQ(s.time_at(0), 0);
  EXPECT_EQ(s.time_at(1), 120);
  EXPECT_EQ(s.time_at(2), 240);
  EXPECT_EQ(s.time_at(3), 500);
  // And later appends keep working in explicit mode.
  s.append(501, 5.0);
  EXPECT_EQ(s.time_at(4), 501);
}

TEST(TimeSeries, SingleAndEmptySeriesAreTriviallyRegular) {
  TimeSeries s;
  EXPECT_TRUE(s.regular());
  EXPECT_EQ(s.stride(), 0);
  s.append(42, 1.0);
  EXPECT_TRUE(s.regular());
  EXPECT_EQ(s.start(), 42);
  EXPECT_EQ(s.stride(), 0);  // not yet established
}

TEST(TimeSeries, ValuesPreservesOrder) {
  TimeSeries s;
  s.append(0, 3.0);
  s.append(60, 1.0);
  s.append(120, 2.0);
  const std::span<const double> vals = s.values();
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_DOUBLE_EQ(vals[0], 3.0);
  EXPECT_DOUBLE_EQ(vals[2], 2.0);
}

TEST(TimeSeries, ValuesBetweenIsHalfOpen) {
  TimeSeries s;
  for (SimTime t = 0; t < 600; t += 120) {
    s.append(t, static_cast<double>(t));
  }
  const std::span<const double> vals = s.values_between(120, 360);
  ASSERT_EQ(vals.size(), 2u);  // 120, 240; 360 excluded
  EXPECT_DOUBLE_EQ(vals[0], 120.0);
  EXPECT_DOUBLE_EQ(vals[1], 240.0);
}

TEST(TimeSeries, ValuesBetweenOnIrregularSeries) {
  TimeSeries s;
  s.append(0, 1.0);
  s.append(100, 2.0);
  s.append(150, 3.0);
  s.append(400, 4.0);
  ASSERT_FALSE(s.regular());
  const std::span<const double> vals = s.values_between(100, 400);
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_DOUBLE_EQ(vals[0], 2.0);
  EXPECT_DOUBLE_EQ(vals[1], 3.0);
  EXPECT_TRUE(s.values_between(401, 500).empty());
  EXPECT_TRUE(s.values_between(400, 400).empty());
}

TEST(TimeSeries, ValuesBetweenBoundariesOffTheStrideGrid) {
  TimeSeries s;
  for (SimTime t = 0; t < 600; t += 120) {
    s.append(t, static_cast<double>(t));
  }
  // [119, 361) must behave exactly like the sample-by-sample filter.
  const std::span<const double> vals = s.values_between(119, 361);
  ASSERT_EQ(vals.size(), 3u);  // 120, 240, 360
  EXPECT_DOUBLE_EQ(vals[0], 120.0);
  EXPECT_DOUBLE_EQ(vals[2], 360.0);
  EXPECT_TRUE(s.values_between(-500, 0).empty());
  EXPECT_EQ(s.values_between(-500, 1).size(), 1u);
}

TEST(TimeSeries, ValuesBetweenSentinelBoundsSelectTheTail) {
  TimeSeries s;
  for (SimTime t = 0; t < 600; t += 120) {
    s.append(t, static_cast<double>(t));
  }
  // INT64 extremes are legal half-open bounds (the "rest of the series"
  // idiom) and must not overflow the stride arithmetic.
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  EXPECT_EQ(s.values_between(240, kMax).size(), 3u);  // 240, 360, 480
  EXPECT_EQ(s.values_between(kMin, kMax).size(), 5u);
  EXPECT_TRUE(s.values_between(kMin, 0).empty());
  EXPECT_EQ(s.slice(360, kMax).size(), 2u);
}

TEST(TimeSeries, SlicePreservesTimestamps) {
  TimeSeries s;
  s.append(0, 1.0);
  s.append(120, 2.0);
  s.append(240, 3.0);
  const SeriesView sliced = s.slice(120, 240);
  ASSERT_EQ(sliced.size(), 1u);
  EXPECT_EQ(sliced.at(0).window_start, 120);
  EXPECT_DOUBLE_EQ(sliced.at(0).value, 2.0);
  EXPECT_THROW((void)sliced.at(1), std::out_of_range);
}

TEST(SeriesView, DefaultConstructedViewIsSafelyEmpty) {
  const SeriesView view;
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.size(), 0u);
  EXPECT_EQ(view.time_at(0), 0);
  EXPECT_DOUBLE_EQ(view.value_at(0), 0.0);
  EXPECT_TRUE(view.values().empty());
  EXPECT_TRUE(view.regular());
  EXPECT_EQ(view.stride(), 0);
  EXPECT_THROW((void)view.at(0), std::out_of_range);
}

TEST(SeriesView, StaysValidAcrossParentAppends) {
  TimeSeries s;
  for (SimTime t = 0; t < 480; t += 120) {
    s.append(t, static_cast<double>(t));
  }
  const SeriesView view = s.slice(120, 360);
  ASSERT_EQ(view.size(), 2u);
  // Appends only extend the series past the view: the (offset, length)
  // window still denotes the same samples afterwards.
  s.append(480, 480.0);
  s.append(600, 600.0);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.time_at(0), 120);
  EXPECT_DOUBLE_EQ(view.value_at(0), 120.0);
  EXPECT_EQ(view.time_at(1), 240);
}

TEST(TimeSeries, ReservedAppendsKeepValueSpanStable) {
  TimeSeries s;
  s.reserve(16);
  s.append(0, 1.0);
  const std::span<const double> before = s.values();
  for (SimTime t = 120; t < 16 * 120; t += 120) {
    s.append(t, static_cast<double>(t));
  }
  // No reallocation happened within the reserved capacity, so the earlier
  // span still points at live storage.
  EXPECT_EQ(before.data(), s.values().data());
  EXPECT_GE(s.capacity(), 16u);
}

TEST(Align, InnerJoinOnTimestamps) {
  TimeSeries x;
  TimeSeries y;
  x.append(0, 1.0);
  x.append(120, 2.0);
  x.append(240, 3.0);
  y.append(120, 20.0);
  y.append(240, 30.0);
  y.append(360, 40.0);
  const AlignedPair pair = align(x, y);
  ASSERT_EQ(pair.x.size(), 2u);
  EXPECT_DOUBLE_EQ(pair.x[0], 2.0);
  EXPECT_DOUBLE_EQ(pair.y[0], 20.0);
  EXPECT_DOUBLE_EQ(pair.x[1], 3.0);
  EXPECT_DOUBLE_EQ(pair.y[1], 30.0);
}

TEST(Align, DisjointSeriesYieldEmpty) {
  TimeSeries x;
  TimeSeries y;
  x.append(0, 1.0);
  y.append(120, 2.0);
  const AlignedPair pair = align(x, y);
  EXPECT_TRUE(pair.x.empty());
  EXPECT_TRUE(pair.y.empty());
}

TEST(Align, EmptySeriesYieldEmpty) {
  TimeSeries x;
  TimeSeries y;
  y.append(0, 1.0);
  const AlignedPair pair = align(x, y);
  EXPECT_TRUE(pair.x.empty());
}

TEST(Align, IdenticalTimestampsFullJoin) {
  TimeSeries x;
  TimeSeries y;
  for (SimTime t = 0; t < 1200; t += 120) {
    x.append(t, static_cast<double>(t));
    y.append(t, static_cast<double>(t) * 2.0);
  }
  const AlignedPair pair = align(x, y);
  EXPECT_EQ(pair.x.size(), 10u);
  for (std::size_t i = 0; i < pair.x.size(); ++i) {
    EXPECT_DOUBLE_EQ(pair.y[i], pair.x[i] * 2.0);
  }
}

TEST(Align, StrideFastPathMatchesWalkOnOffsetSeries) {
  // Same cadence, different spans: x covers [0, 1200), y covers [360, 1560).
  TimeSeries x;
  TimeSeries y;
  for (SimTime t = 0; t < 1200; t += 120) x.append(t, static_cast<double>(t) + 0.5);
  for (SimTime t = 360; t < 1560; t += 120) y.append(t, static_cast<double>(t) * 3.0);
  ASSERT_TRUE(x.regular());
  ASSERT_TRUE(y.regular());
  const AlignedPair pair = align(x, y);
  ASSERT_EQ(pair.x.size(), 7u);  // 360..1080
  for (std::size_t i = 0; i < pair.x.size(); ++i) {
    const auto t = static_cast<double>(360 + 120 * static_cast<SimTime>(i));
    EXPECT_DOUBLE_EQ(pair.x[i], t + 0.5);
    EXPECT_DOUBLE_EQ(pair.y[i], t * 3.0);
  }
}

TEST(Align, IncongruentStridesNeverMatch) {
  TimeSeries x;
  TimeSeries y;
  for (SimTime t = 0; t < 600; t += 120) x.append(t, 1.0);
  for (SimTime t = 60; t < 660; t += 120) y.append(t, 2.0);  // offset by 60
  const AlignedPair pair = align(x, y);
  EXPECT_TRUE(pair.x.empty());
}

TEST(Align, MixedRegularAndIrregularFallsBackToWalk) {
  TimeSeries x;
  for (SimTime t = 0; t < 600; t += 120) x.append(t, static_cast<double>(t));
  TimeSeries y;
  y.append(0, 10.0);
  y.append(120, 20.0);
  y.append(300, 30.0);  // irregular
  ASSERT_FALSE(y.regular());
  const AlignedPair pair = align(x, y);
  ASSERT_EQ(pair.x.size(), 2u);  // 0 and 120 match; 300 is off x's grid...
  EXPECT_DOUBLE_EQ(pair.y[1], 20.0);
}

TEST(Align, SlicedViewsJoinLikeMaterializedSlices) {
  TimeSeries x;
  TimeSeries y;
  for (SimTime t = 0; t < 2400; t += 120) {
    x.append(t, static_cast<double>(t) + 1.0);
    y.append(t, static_cast<double>(t) + 2.0);
  }
  const AlignedPair pair = align(x.slice(240, 1200), y.slice(480, 2400));
  ASSERT_EQ(pair.x.size(), 6u);  // 480..1080
  EXPECT_DOUBLE_EQ(pair.x[0], 481.0);
  EXPECT_DOUBLE_EQ(pair.y[0], 482.0);
  EXPECT_DOUBLE_EQ(pair.x[5], 1081.0);
}

TEST(TimeSeries, DropFrontKeepsStrideEncoding) {
  TimeSeries s;
  for (SimTime t = 0; t < 10 * 120; t += 120) {
    s.append(t, static_cast<double>(t));
  }
  ASSERT_TRUE(s.regular());
  EXPECT_EQ(s.drop_front(3), 3u);
  EXPECT_TRUE(s.regular());  // eviction must not force explicit times
  EXPECT_EQ(s.size(), 7u);
  EXPECT_EQ(s.start(), 360);
  EXPECT_EQ(s.time_at(0), 360);
  EXPECT_DOUBLE_EQ(s.at(0).value, 360.0);
  // Appends after eviction continue the same stride.
  s.append(10 * 120, 1200.0);
  EXPECT_TRUE(s.regular());
  EXPECT_EQ(s.time_at(s.size() - 1), 1200);
}

TEST(TimeSeries, DropFrontOnIrregularSeries) {
  TimeSeries s;
  s.append(0, 1.0);
  s.append(120, 2.0);
  s.append(500, 3.0);  // cadence break
  ASSERT_FALSE(s.regular());
  EXPECT_EQ(s.drop_front(2), 2u);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.time_at(0), 500);
}

TEST(TimeSeries, DropFrontClampsAndEmpties) {
  TimeSeries s;
  s.append(0, 1.0);
  s.append(120, 2.0);
  EXPECT_EQ(s.drop_front(99), 2u);  // clamped to size()
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.drop_front(1), 0u);  // empty series drops nothing
  // An emptied series accepts a fresh history, including earlier times.
  s.append(0, 3.0);
  EXPECT_EQ(s.size(), 1u);
}

TEST(TimeSeries, FirstIndexAtOrAfterOnRegularSeries) {
  TimeSeries s;
  for (SimTime t = 120; t <= 5 * 120; t += 120) {
    s.append(t, 1.0);
  }
  EXPECT_EQ(s.first_index_at_or_after(0), 0u);
  EXPECT_EQ(s.first_index_at_or_after(120), 0u);
  EXPECT_EQ(s.first_index_at_or_after(121), 1u);
  EXPECT_EQ(s.first_index_at_or_after(240), 1u);
  EXPECT_EQ(s.first_index_at_or_after(600), 4u);
  EXPECT_EQ(s.first_index_at_or_after(601), 5u);  // past the end
}

TEST(TimeSeries, FirstIndexAtOrAfterOnIrregularSeries) {
  TimeSeries s;
  s.append(0, 1.0);
  s.append(120, 2.0);
  s.append(500, 3.0);
  ASSERT_FALSE(s.regular());
  EXPECT_EQ(s.first_index_at_or_after(120), 1u);
  EXPECT_EQ(s.first_index_at_or_after(121), 2u);
  EXPECT_EQ(s.first_index_at_or_after(501), 3u);
}

// --- Differential test against a plain (time, value) vector -----------------

/// The reference: the samples as plain pairs, plus the cadence state a
/// TimeSeries must report (stride-encoded until a cadence break, reset by
/// emptying; the stride is set by the second sample and forgotten when
/// eviction leaves a single survivor).
struct ReferenceSeries {
  std::vector<std::pair<SimTime, double>> samples;
  bool regular = true;
  SimTime stride = 0;

  void append(SimTime t, double v) {
    if (samples.size() == 1 && regular) {
      stride = t - samples[0].first;
    } else if (samples.size() >= 2 && regular &&
               t != samples.back().first + stride) {
      regular = false;
    }
    samples.emplace_back(t, v);
  }
  std::size_t drop_front(std::size_t n) {
    const std::size_t dropped = std::min(n, samples.size());
    samples.erase(samples.begin(),
                  samples.begin() + static_cast<std::ptrdiff_t>(dropped));
    if (samples.empty()) {
      regular = true;
      stride = 0;
    } else if (samples.size() == 1 && regular) {
      stride = 0;
    }
    return dropped;
  }
  [[nodiscard]] std::vector<std::pair<SimTime, double>> between(
      SimTime from, SimTime to) const {
    std::vector<std::pair<SimTime, double>> out;
    for (const auto& [t, v] : samples) {
      if (t >= from && t < to) out.emplace_back(t, v);
    }
    return out;
  }
  [[nodiscard]] std::size_t first_at_or_after(SimTime bound) const {
    std::size_t i = 0;
    while (i < samples.size() && samples[i].first < bound) ++i;
    return i;
  }
};

/// Compares every accessor of `s` against the reference `ref`.
void expect_same(const TimeSeries& s, const ReferenceSeries& ref,
                 std::mt19937_64& rng, int step) {
  SCOPED_TRACE("after operation " + std::to_string(step));
  const std::size_t n = ref.samples.size();
  ASSERT_EQ(s.size(), n);
  ASSERT_EQ(s.empty(), n == 0);
  EXPECT_EQ(s.regular(), ref.regular);
  EXPECT_EQ(s.stride(), ref.regular ? ref.stride : 0);
  EXPECT_EQ(s.start(), n == 0 ? 0 : ref.samples.front().first);
  const std::span<const double> values = s.values();
  ASSERT_EQ(values.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(s.time_at(i), ref.samples[i].first) << "index " << i;
    ASSERT_EQ(s.value_at(i), ref.samples[i].second) << "index " << i;
    ASSERT_EQ(values[i], ref.samples[i].second) << "index " << i;
  }
  // Query bounds: random ones around the resident span, sample times
  // themselves, and the sentinels.
  const SimTime lo = n == 0 ? 0 : ref.samples.front().first;
  const SimTime hi = n == 0 ? 0 : ref.samples.back().first;
  std::vector<SimTime> bounds{std::numeric_limits<SimTime>::min(),
                              std::numeric_limits<SimTime>::max(), lo, hi,
                              hi + 1, lo - 1};
  for (int k = 0; k < 4; ++k) {
    bounds.push_back(lo - 200 +
                     static_cast<SimTime>(rng() % static_cast<std::uint64_t>(
                                                     hi - lo + 400)));
  }
  for (const SimTime bound : bounds) {
    EXPECT_EQ(s.first_index_at_or_after(bound), ref.first_at_or_after(bound))
        << "bound " << bound;
  }
  for (std::size_t a = 0; a < bounds.size(); ++a) {
    const SimTime from = bounds[a];
    const SimTime to = bounds[(a + 3) % bounds.size()];
    const auto expected = ref.between(from, to);
    const std::span<const double> got = s.values_between(from, to);
    const SeriesView view = s.slice(from, to);
    ASSERT_EQ(got.size(), expected.size()) << "[" << from << ", " << to << ")";
    ASSERT_EQ(view.size(), expected.size()) << "[" << from << ", " << to << ")";
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i], expected[i].second);
      EXPECT_EQ(view.time_at(i), expected[i].first);
      EXPECT_EQ(view.value_at(i), expected[i].second);
    }
  }
}

/// Drives a seeded interleaving of appends, evictions and reserves through
/// a TimeSeries and the reference, comparing them after every operation.
/// With `break_cadence`, some appends land off the stride; the series is
/// emptied now and then so later breaks hit a stride-encoded series again,
/// and the run asserts that breaks landed on series with evictions behind
/// them. Every append within capacity must also keep a values() span taken
/// before it reading the same samples.
void run_differential(std::uint64_t seed, bool break_cadence) {
  std::mt19937_64 rng(seed);
  TimeSeries s;
  ReferenceSeries ref;
  SimTime next = 1000;
  bool dropped_since_empty = false;
  int breaks_after_drops = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng() % 100;
    if (op < 62) {
      const bool off_stride = break_cadence && rng() % 25 == 0;
      const SimTime t = off_stride ? next + 1 + static_cast<SimTime>(rng() % 300)
                                   : next;
      if (off_stride && ref.regular && ref.samples.size() >= 2 &&
          dropped_since_empty) {
        ++breaks_after_drops;
      }
      const double v = static_cast<double>(rng() % 100000) * 0.25;
      const bool within_capacity = s.size() < s.capacity();
      const std::span<const double> before = s.values();
      s.append(t, v);
      ref.append(t, v);
      if (within_capacity) {
        for (std::size_t i = 0; i < before.size(); ++i) {
          ASSERT_EQ(before[i], ref.samples[i].second)
              << "an append within capacity moved sample " << i;
        }
      }
      next = t + 120;
    } else if (op < 95) {
      const std::size_t k = rng() % 30 == 0 ? ref.samples.size() + rng() % 3
                                            : rng() % 4;
      EXPECT_EQ(s.drop_front(k), ref.drop_front(k));
      if (ref.samples.empty()) {
        dropped_since_empty = false;
      } else if (k > 0) {
        dropped_since_empty = true;
      }
    } else {
      const std::size_t want = s.size() + rng() % 64;
      s.reserve(want);
      EXPECT_GE(s.capacity(), want);
    }
    expect_same(s, ref, rng, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (break_cadence) {
    EXPECT_GT(breaks_after_drops, 10);
  }
}

TEST(TimeSeriesDifferential, StrideEncodedAppendsAndDrops) {
  run_differential(41, /*break_cadence=*/false);
}

TEST(TimeSeriesDifferential, CadenceBreaksAfterDrops) {
  run_differential(42, /*break_cadence=*/true);
}

TEST(TimeSeries, SteadyAppendAndEvictSettlesToAFixedFootprint) {
  // One append and one eviction per window, the retention sweep's shape:
  // the evicted prefix is compacted away before it grows the columns, so
  // the footprint after 10 lookbacks equals the footprint after 100.
  const std::size_t lookback = 720;
  TimeSeries s;
  SimTime t = 0;
  for (std::size_t i = 0; i < lookback; ++i, t += 120) s.append(t, 1.0);
  std::size_t at_10 = 0;
  for (std::size_t w = 1; w <= 100 * lookback; ++w, t += 120) {
    s.append(t, 1.0);
    ASSERT_EQ(s.drop_front(1), 1u);
    if (w == 10 * lookback) at_10 = s.memory_bytes();
  }
  EXPECT_EQ(s.size(), lookback);
  EXPECT_TRUE(s.regular());
  EXPECT_EQ(s.memory_bytes(), at_10);
}

}  // namespace
}  // namespace headroom::telemetry
