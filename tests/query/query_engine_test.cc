#include "query/query_engine.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "telemetry/metric_store.h"

namespace headroom::query {
namespace {

using telemetry::MetricKind;
using telemetry::MetricStore;
using telemetry::SeriesKey;
using telemetry::SimTime;

const SeriesKey kCpu{0, 0, SeriesKey::kPoolScope,
                     MetricKind::kCpuPercentTotal};

/// Deterministic pseudo-random value stream for test data.
double noise(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<double>(state >> 40) / 1e4;
}

TEST(QueryEngine, RejectsNullStore) {
  EXPECT_THROW(QueryEngine(nullptr), std::invalid_argument);
}

TEST(QueryEngine, EmptyStoreAndEmptyRange) {
  MetricStore store;
  const QueryEngine engine(&store);
  EXPECT_TRUE(engine.raw_covers(0, 86400));
  EXPECT_TRUE(engine.raw_window(kCpu, 0, 86400).empty());
  EXPECT_FALSE(engine.window_value(kCpu, 0).has_value());

  store.record(kCpu, 0, 1.0);
  EXPECT_TRUE(engine.raw_window(kCpu, 120, 120).empty());  // to <= from
  EXPECT_FALSE(engine.raw_covers(120, 0));
  EXPECT_FALSE(engine.window_value(kCpu, 120).has_value());  // dark window
}

TEST(QueryEngine, RawNativeResolutionIsBitIdenticalToSeries) {
  MetricStore store;
  std::uint64_t state = 7;
  for (SimTime t = 0; t < 86400; t += 120) store.record(kCpu, t, noise(state));

  const QueryEngine engine(&store);
  ASSERT_TRUE(engine.raw_covers(0, 86400));
  const telemetry::SeriesView window = engine.raw_window(kCpu, 3600, 7200);
  ASSERT_EQ(window.size(), 30u);
  const telemetry::TimeSeries& series = store.series(kCpu);
  for (std::size_t i = 0; i < window.size(); ++i) {
    const SimTime t = window.time_at(i);
    const std::size_t at = static_cast<std::size_t>(t / 120);
    EXPECT_EQ(t, series.time_at(at));
    // Bit-identical, not just close: the golden-pinned paths rely on it.
    EXPECT_EQ(window.value_at(i), series.value_at(at));
    const auto value = engine.window_value(kCpu, t);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, series.value_at(at));
  }

  // Retention evicts everything before the last two hours: an evicted
  // window reads as nothing, a surviving one is still the raw sample.
  const double last = series.value_at(series.size() - 1);
  store.set_retention(7200);
  ASSERT_FALSE(engine.raw_covers(3600, 7200));
  EXPECT_FALSE(engine.window_value(kCpu, 3600).has_value());
  EXPECT_TRUE(engine.raw_window(kCpu, 3600, 7200).empty());
  const auto survivor = engine.window_value(kCpu, 86400 - 120);
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(*survivor, last);
}

}  // namespace
}  // namespace headroom::query
