#include "telemetry/metric_store.h"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

namespace headroom::telemetry {
namespace {

TEST(MetricStore, EmptyLookupIsEmptySeries) {
  MetricStore store;
  const SeriesKey key{0, 0, 0, MetricKind::kRequestsPerSecond};
  EXPECT_FALSE(store.contains(key));
  EXPECT_TRUE(store.series(key).empty());
}

TEST(MetricStore, RecordAndRetrieve) {
  MetricStore store;
  const SeriesKey key{1, 2, 3, MetricKind::kCpuPercentTotal};
  store.record(key, 0, 10.0);
  store.record(key, 120, 12.0);
  EXPECT_TRUE(store.contains(key));
  EXPECT_EQ(store.series(key).size(), 2u);
  EXPECT_EQ(store.sample_count(), 2u);
  EXPECT_EQ(store.series_count(), 1u);
}

TEST(MetricStore, MergeReplaysBufferInOrder) {
  const SeriesKey rps{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  const SeriesKey cpu{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kCpuPercentTotal};

  MetricStore direct;
  direct.record(rps, 0, 100.0);
  direct.record(cpu, 0, 25.0);
  direct.record(rps, 120, 110.0);

  MetricBuffer buffer;
  buffer.record(rps, 0, 100.0);
  buffer.record(cpu, 0, 25.0);
  buffer.record(rps, 120, 110.0);
  EXPECT_EQ(buffer.size(), 3u);
  MetricStore merged;
  merged.merge(buffer);

  EXPECT_EQ(merged.sample_count(), direct.sample_count());
  EXPECT_EQ(merged.series_count(), direct.series_count());
  for (const SeriesKey& key : {rps, cpu}) {
    const TimeSeries& a = merged.series(key);
    const TimeSeries& b = direct.series(key);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.at(i).window_start, b.at(i).window_start);
      EXPECT_DOUBLE_EQ(a.at(i).value, b.at(i).value);
    }
  }

  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  merged.merge(buffer);  // merging an empty buffer is a no-op
  EXPECT_EQ(merged.sample_count(), 3u);
}

TEST(MetricStore, BatchedMergeIsBitIdenticalToReplay) {
  // A multi-window buffer with interleaved keys (the shape a simulator
  // shard emits across several barriers, or a trace ingester in one go):
  // the grouped-per-key merge must equal naive entry-by-entry replay on
  // every byte the store exposes.
  std::vector<SeriesKey> keys;
  for (std::uint32_t server : {0u, 1u, SeriesKey::kPoolScope}) {
    keys.push_back({0, 0, server, MetricKind::kRequestsPerSecond});
    keys.push_back({0, 0, server, MetricKind::kCpuPercentTotal});
  }
  MetricBuffer buffer;
  std::uint64_t salt = 0x9E3779B97F4A7C15ull;
  for (SimTime t = 0; t < 40 * 120; t += 120) {
    for (const SeriesKey& key : keys) {
      salt ^= salt << 13;
      salt ^= salt >> 7;
      salt ^= salt << 17;
      buffer.record(key, t, static_cast<double>(salt % 100003) / 97.0);
    }
  }

  MetricStore replayed;
  for (const MetricBuffer::Entry& e : buffer.entries()) {
    replayed.record(e.key, e.window_start, e.value);
  }
  MetricStore merged;
  merged.merge(buffer);

  EXPECT_EQ(merged.sample_count(), replayed.sample_count());
  ASSERT_EQ(merged.series_count(), replayed.series_count());
  for (const SeriesKey& key : replayed.keys()) {
    const TimeSeries& a = merged.series(key);
    const TimeSeries& b = replayed.series(key);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.regular(), b.regular());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.time_at(i), b.time_at(i));
      // Bit-identical, not approximately equal.
      EXPECT_EQ(a.value_at(i), b.value_at(i));
    }
  }
}

TEST(MetricStore, MergeAcceptsRepeatedBuffersPerKey) {
  // Window-barrier shape: the same buffer object, cleared and refilled each
  // window, merged repeatedly — series must keep extending in time order.
  const SeriesKey key{0, 0, SeriesKey::kPoolScope, MetricKind::kActiveServers};
  MetricStore store;
  MetricBuffer buffer;
  for (SimTime t = 0; t < 5 * 120; t += 120) {
    buffer.clear();
    buffer.record(key, t, static_cast<double>(t));
    store.merge(buffer);
  }
  const TimeSeries& s = store.series(key);
  ASSERT_EQ(s.size(), 5u);
  EXPECT_TRUE(s.regular());
  EXPECT_EQ(s.stride(), 120);
}

TEST(MetricStore, RejectedMergeEntryDoesNotInflateSampleCount) {
  const SeriesKey key{0, 0, SeriesKey::kPoolScope, MetricKind::kRequestsPerSecond};
  MetricStore store;
  MetricBuffer buffer;
  buffer.record(key, 0, 1.0);
  buffer.record(key, 120, 2.0);
  buffer.record(key, 120, 3.0);  // duplicate timestamp: rejected mid-merge
  EXPECT_THROW(store.merge(buffer), std::invalid_argument);
  // Only the entries that actually landed are counted.
  EXPECT_EQ(store.sample_count(), 2u);
  EXPECT_EQ(store.series(key).size(), 2u);
}

TEST(MetricStore, ReserveAdditionalPreservesContentAndStabilizesSpans) {
  const SeriesKey key{0, 0, SeriesKey::kPoolScope, MetricKind::kCpuPercentTotal};
  MetricStore store;
  store.record(key, 0, 1.0);
  store.reserve_additional(100);
  const TimeSeries& s = store.series(key);
  EXPECT_GE(s.capacity(), 101u);
  const std::span<const double> before = s.values();
  MetricBuffer buffer;
  for (SimTime t = 120; t <= 100 * 120; t += 120) {
    buffer.record(key, t, static_cast<double>(t));
  }
  store.merge(buffer);
  EXPECT_EQ(s.size(), 101u);
  // All appends fit in the reservation: the earlier span is still live.
  EXPECT_EQ(before.data(), s.values().data());
}

TEST(MetricStore, KeysAreDistinguishedByAllFields) {
  MetricStore store;
  const SeriesKey a{1, 2, 3, MetricKind::kCpuPercentTotal};
  SeriesKey b = a;
  b.metric = MetricKind::kLatencyP95Ms;
  SeriesKey c = a;
  c.server = 4;
  SeriesKey d = a;
  d.datacenter = 9;
  store.record(a, 0, 1.0);
  store.record(b, 0, 2.0);
  store.record(c, 0, 3.0);
  store.record(d, 0, 4.0);
  EXPECT_EQ(store.series_count(), 4u);
  EXPECT_DOUBLE_EQ(store.series(a).at(0).value, 1.0);
  EXPECT_DOUBLE_EQ(store.series(d).at(0).value, 4.0);
}

TEST(MetricStore, PoolSeriesUsesPoolScope) {
  MetricStore store;
  const SeriesKey pool_key{0, 1, SeriesKey::kPoolScope,
                           MetricKind::kRequestsPerSecond};
  store.record(pool_key, 0, 100.0);
  EXPECT_EQ(store.pool_series(0, 1, MetricKind::kRequestsPerSecond).size(), 1u);
  // Server-scope record does not pollute pool scope.
  store.record({0, 1, 7, MetricKind::kRequestsPerSecond}, 0, 50.0);
  EXPECT_EQ(store.pool_series(0, 1, MetricKind::kRequestsPerSecond).size(), 1u);
}

TEST(MetricStore, PoolScatterAlignsTwoMetrics) {
  MetricStore store;
  for (SimTime t = 0; t < 600; t += 120) {
    store.record({0, 0, SeriesKey::kPoolScope, MetricKind::kRequestsPerSecond},
                 t, static_cast<double>(t));
    store.record({0, 0, SeriesKey::kPoolScope, MetricKind::kCpuPercentTotal},
                 t, static_cast<double>(t) * 0.028 + 1.37);
  }
  const AlignedPair pair = store.pool_scatter(
      0, 0, MetricKind::kRequestsPerSecond, MetricKind::kCpuPercentTotal);
  ASSERT_EQ(pair.x.size(), 5u);
  EXPECT_DOUBLE_EQ(pair.y[2], pair.x[2] * 0.028 + 1.37);
}

TEST(MetricStore, ClearResets) {
  MetricStore store;
  store.record({0, 0, 0, MetricKind::kErrorsPerSecond}, 0, 1.0);
  store.clear();
  EXPECT_EQ(store.series_count(), 0u);
  EXPECT_EQ(store.sample_count(), 0u);
}

// --- Rolling retention ------------------------------------------------------

TEST(MetricStoreRetention, EvictsWindowsOlderThanLookback) {
  MetricStore store;
  const SeriesKey key{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  store.set_retention(480);  // keep four 120 s windows behind the watermark
  for (SimTime t = 0; t < 10 * 120; t += 120) {
    store.record(key, t, static_cast<double>(t));
  }
  // Watermark 1080, cutoff 600: windows 0..480 are gone.
  EXPECT_EQ(store.series(key).size(), 5u);
  EXPECT_EQ(store.series(key).time_at(0), 600);
  EXPECT_EQ(store.sample_count(), 5u);
  EXPECT_EQ(store.evicted_samples(), 5u);
}

TEST(MetricStoreRetention, SweepsEverySeriesAgainstOneWatermark) {
  MetricStore store;
  const SeriesKey rps{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  const SeriesKey cpu{0, 0, 7, MetricKind::kCpuPercentTotal};
  store.set_retention(240);
  for (SimTime t = 0; t < 6 * 120; t += 120) {
    store.record(rps, t, 1.0);
    store.record(cpu, t, 2.0);
  }
  EXPECT_EQ(store.series(rps).time_at(0), store.series(cpu).time_at(0));
  EXPECT_EQ(store.series(rps).size(), store.series(cpu).size());
}

TEST(MetricStoreRetention, EnablingOnAGrownStoreSweepsImmediately) {
  MetricStore store;
  const SeriesKey key{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  for (SimTime t = 0; t < 10 * 120; t += 120) {
    store.record(key, t, 1.0);
  }
  EXPECT_EQ(store.evicted_samples(), 0u);
  store.set_retention(240);  // takes effect without waiting for an append
  EXPECT_EQ(store.series(key).time_at(0), 840);
  EXPECT_GT(store.evicted_samples(), 0u);
}

TEST(MetricStoreRetention, ZeroRestoresKeepEverything) {
  MetricStore store;
  const SeriesKey key{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  store.set_retention(240);
  store.set_retention(0);
  for (SimTime t = 0; t < 10 * 120; t += 120) {
    store.record(key, t, 1.0);
  }
  EXPECT_EQ(store.series(key).size(), 10u);
  EXPECT_EQ(store.evicted_samples(), 0u);
  EXPECT_THROW(store.set_retention(-1), std::invalid_argument);
}

TEST(MetricStoreRetention, EvictionFloorHaltsTheSweep) {
  // A bulk-ingested recording puts the watermark far ahead of the slowest
  // consumer; the floor keeps its unread windows resident (the serve
  // --follow starvation regression).
  MetricStore store;
  const SeriesKey key{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  for (SimTime t = 0; t < 50 * 120; t += 120) {
    store.record(key, t, 1.0);
  }
  store.set_eviction_floor(600);  // consumer cursor: window 5
  store.set_retention(240);       // watermark cutoff would be 5520
  EXPECT_EQ(store.series(key).time_at(0), 600);
  EXPECT_EQ(store.evicted_samples(), 5u);

  // Raising the floor releases exactly the windows the consumer passed.
  store.set_eviction_floor(1200);
  EXPECT_EQ(store.series(key).time_at(0), 1200);
  EXPECT_EQ(store.evicted_samples(), 10u);
  EXPECT_EQ(store.eviction_floor(), 1200);
  EXPECT_THROW(store.set_eviction_floor(-1), std::invalid_argument);
}

TEST(MetricStoreRetention, FloorBeyondCutoffLeavesWatermarkRuleInCharge) {
  MetricStore store;
  const SeriesKey key{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  store.set_eviction_floor(100000);  // far ahead: never the binding bound
  store.set_retention(240);
  for (SimTime t = 0; t < 6 * 120; t += 120) {
    store.record(key, t, 1.0);
  }
  EXPECT_EQ(store.series(key).time_at(0), 360);  // watermark 600 - 240
}

TEST(MetricStoreRetention, ClearResetsRetentionStateToo) {
  MetricStore store;
  const SeriesKey key{0, 0, SeriesKey::kPoolScope,
                      MetricKind::kRequestsPerSecond};
  store.set_retention(240);
  store.set_eviction_floor(0);
  for (SimTime t = 0; t < 6 * 120; t += 120) {
    store.record(key, t, 1.0);
  }
  store.clear();
  EXPECT_EQ(store.retention(), 0);
  EXPECT_EQ(store.evicted_samples(), 0u);
  // A cleared store keeps full history again.
  for (SimTime t = 0; t < 6 * 120; t += 120) {
    store.record(key, t, 1.0);
  }
  EXPECT_EQ(store.series(key).size(), 6u);
}

TEST(SeriesKeyHash, DistinctKeysUsuallyDistinctHashes) {
  SeriesKeyHash hash;
  const SeriesKey a{1, 2, 3, MetricKind::kCpuPercentTotal};
  SeriesKey b = a;
  b.server = 4;
  EXPECT_NE(hash(a), hash(b));
}

TEST(MetricKind, NamesAreUniqueAndNonEmpty) {
  for (std::size_t i = 0; i < kMetricKindCount; ++i) {
    const auto kind = static_cast<MetricKind>(i);
    EXPECT_FALSE(to_string(kind).empty());
    for (std::size_t j = i + 1; j < kMetricKindCount; ++j) {
      EXPECT_NE(to_string(kind), to_string(static_cast<MetricKind>(j)));
    }
  }
}

}  // namespace
}  // namespace headroom::telemetry
