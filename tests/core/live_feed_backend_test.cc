// LiveFeedBackend: the append-only-store backend behind both trace replay
// (sealed) and continuous serve mode (live). The contract under test:
// observe() walks the simulator's stepping grid, try_observe() reports
// pending without moving the cursor, a blocking observe() past the end of
// a live feed throws, and serving-count changes validate against the
// recorded active-servers column only when asked to.
#include "core/live_feed_backend.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sim_backend.h"
#include "sim/fleet.h"
#include "sim/topology.h"
#include "telemetry/metric_store.h"

namespace headroom::core {
namespace {

using telemetry::MetricKind;
using telemetry::MetricStore;
using telemetry::SeriesKey;
using telemetry::SimTime;

constexpr SimTime kWindow = 120;

SeriesKey pool_key(MetricKind kind) {
  return {0, 0, SeriesKey::kPoolScope, kind};
}

/// Appends `count` windows starting at `from`, one sample per metric the
/// observation join needs. Values encode the window start so tests can
/// check which windows an observation actually contains.
void append_windows(MetricStore* store, SimTime from, std::size_t count,
                    double servers = 8.0) {
  for (std::size_t i = 0; i < count; ++i) {
    const SimTime t = from + static_cast<SimTime>(i) * kWindow;
    const auto tv = static_cast<double>(t);
    store->record(pool_key(MetricKind::kRequestsPerSecond), t, 100.0 + tv);
    store->record(pool_key(MetricKind::kCpuPercentAttributed), t, 10.0);
    store->record(pool_key(MetricKind::kLatencyP95Ms), t, 50.0);
    store->record(pool_key(MetricKind::kActiveServers), t, servers);
  }
}

LiveFeedBackend::Options live_options() {
  LiveFeedBackend::Options opt;
  opt.pool_size = 10;
  opt.serving = 8;
  opt.window_seconds = kWindow;
  opt.sealed = false;
  opt.validate_serving = false;
  opt.label = "test feed";
  return opt;
}

TEST(LiveFeedBackend, RejectsUnderspecifiedFeeds) {
  MetricStore store;
  LiveFeedBackend::Options opt = live_options();
  EXPECT_THROW(LiveFeedBackend(nullptr, opt), std::invalid_argument);
  opt.window_seconds = 0;
  EXPECT_THROW(LiveFeedBackend(&store, opt), std::invalid_argument);
  opt = live_options();
  opt.pool_size = 0;
  EXPECT_THROW(LiveFeedBackend(&store, opt), std::invalid_argument);
  opt = live_options();
  opt.serving = 11;  // more than the pool holds
  EXPECT_THROW(LiveFeedBackend(&store, opt), std::invalid_argument);
}

TEST(LiveFeedBackend, SealedFeedRequiresWorkloadSeries) {
  MetricStore store;
  LiveFeedBackend::Options opt = live_options();
  opt.sealed = true;
  EXPECT_THROW(LiveFeedBackend(&store, opt), std::invalid_argument);
  append_windows(&store, 0, 1);
  EXPECT_NO_THROW(LiveFeedBackend(&store, opt));
  // A live feed may start empty: windows have simply not arrived yet.
  opt.sealed = false;
  MetricStore empty;
  EXPECT_NO_THROW(LiveFeedBackend(&empty, opt));
}

TEST(LiveFeedBackend, ObserveWalksWholeWindowsAndAdvancesCursor) {
  MetricStore store;
  append_windows(&store, 0, 10);
  LiveFeedBackend backend(&store, live_options());
  EXPECT_EQ(backend.cursor(), 0);
  EXPECT_EQ(backend.feed_end(), 10 * kWindow);

  // The recorded kRequestsPerSecond is per-server; an observation's
  // total_rps is that times the recorded active-server count.
  const ExperimentObservations first = backend.observe(3 * kWindow);
  ASSERT_EQ(first.total_rps.size(), 3u);
  EXPECT_DOUBLE_EQ(first.total_rps[0], 100.0 * 8.0);
  EXPECT_EQ(backend.cursor(), 3 * kWindow);

  const ExperimentObservations second = backend.observe(2 * kWindow);
  ASSERT_EQ(second.total_rps.size(), 2u);
  EXPECT_DOUBLE_EQ(second.total_rps[0], (100.0 + 3 * kWindow) * 8.0);
  EXPECT_EQ(backend.cursor(), 5 * kWindow);
}

TEST(LiveFeedBackend, NonMultipleDurationOvershootsLikeRunUntil) {
  MetricStore store;
  append_windows(&store, 0, 4);
  LiveFeedBackend backend(&store, live_options());
  // 150 s is 1.25 windows; the simulator steps whole windows and lands on
  // the next boundary, so the observation must hold 2 windows.
  const ExperimentObservations obs = backend.observe(150);
  EXPECT_EQ(obs.total_rps.size(), 2u);
  EXPECT_EQ(backend.cursor(), 2 * kWindow);
  EXPECT_THROW(backend.observe(0), std::invalid_argument);
  EXPECT_THROW(backend.observe(-kWindow), std::invalid_argument);
}

TEST(LiveFeedBackend, TryObservePendingLeavesCursorUntouched) {
  MetricStore store;
  append_windows(&store, 0, 2);
  LiveFeedBackend backend(&store, live_options());
  EXPECT_EQ(backend.try_observe(3 * kWindow), std::nullopt);
  EXPECT_EQ(backend.cursor(), 0);  // a pending poll must not consume
  // The feed grows; the identical call now succeeds from the same cursor.
  append_windows(&store, 2 * kWindow, 1);
  const auto ready = backend.try_observe(3 * kWindow);
  ASSERT_TRUE(ready.has_value());
  EXPECT_EQ(ready->total_rps.size(), 3u);
  EXPECT_DOUBLE_EQ(ready->total_rps[0], 100.0 * 8.0);
  EXPECT_EQ(backend.cursor(), 3 * kWindow);
}

TEST(LiveFeedBackend, SealedFeedThrowsTraceExhausted) {
  MetricStore store;
  append_windows(&store, 0, 2);
  LiveFeedBackend::Options opt = live_options();
  opt.sealed = true;
  LiveFeedBackend backend(&store, opt);
  try {
    backend.observe(3 * kWindow);
    FAIL() << "expected trace exhausted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace exhausted at t=0"), std::string::npos) << what;
    EXPECT_NE(what.find("recording ends at t=240"), std::string::npos) << what;
  }
}

TEST(LiveFeedBackend, LiveFeedWithoutPumpThrowsFeedExhausted) {
  MetricStore store;
  append_windows(&store, 0, 2);
  LiveFeedBackend backend(&store, live_options());
  try {
    backend.observe(3 * kWindow);
    FAIL() << "expected feed exhausted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("feed exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("feed ends at t=240"), std::string::npos) << what;
  }
}

TEST(LiveFeedBackend, ServingChangesRangeCheckAndNotifyHook) {
  MetricStore store;
  append_windows(&store, 0, 2);
  LiveFeedBackend backend(&store, live_options());
  std::vector<std::size_t> hook_calls;
  backend.set_serving_hook(
      [&](std::size_t servers) { hook_calls.push_back(servers); });
  backend.set_serving_count(6);
  EXPECT_EQ(backend.serving_count(), 6u);
  ASSERT_EQ(hook_calls.size(), 1u);
  EXPECT_EQ(hook_calls[0], 6u);
  EXPECT_THROW(backend.set_serving_count(0), std::invalid_argument);
  EXPECT_THROW(backend.set_serving_count(11), std::invalid_argument);
  EXPECT_EQ(hook_calls.size(), 1u);  // rejected counts never reach the hook
}

TEST(LiveFeedBackend, ValidationCatchesReplayDivergence) {
  MetricStore store;
  append_windows(&store, 0, 2, /*servers=*/8.0);
  LiveFeedBackend::Options opt = live_options();
  opt.validate_serving = true;
  LiveFeedBackend backend(&store, opt);
  // The trace recorded 8 active servers in the cursor window; asking for 4
  // means the replay diverged from the recorded experiment.
  try {
    backend.set_serving_count(4);
    FAIL() << "expected divergence";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("replay diverged"),
              std::string::npos);
  }
  EXPECT_EQ(backend.serving_count(), 8u);  // the rejected count not adopted
  // Fewer active servers on record than requested is legal (maintenance
  // takes rotation members offline); so is a change past the recording.
  EXPECT_NO_THROW(backend.set_serving_count(9));
  (void)backend.observe(2 * kWindow);  // cursor now past the recorded end
  EXPECT_NO_THROW(backend.set_serving_count(4));
}

TEST(LiveFeedBackend, ValidationOffAcceptsAnyInRangeCount) {
  MetricStore store;
  append_windows(&store, 0, 2, /*servers=*/8.0);
  LiveFeedBackend backend(&store, live_options());
  EXPECT_NO_THROW(backend.set_serving_count(4));
  EXPECT_EQ(backend.serving_count(), 4u);
}

// --- Sealed feeds: trace replay over a complete recording -----------------

/// A hand-built recording: `windows` consecutive windows of the four
/// observation series for pool (0, 0), starting at t = 0.
MetricStore make_trace(std::size_t windows, double active = 8.0) {
  MetricStore store;
  const auto key = [](MetricKind kind) {
    return SeriesKey{0, 0, SeriesKey::kPoolScope, kind};
  };
  for (std::size_t i = 0; i < windows; ++i) {
    const SimTime t = static_cast<SimTime>(i) * kWindow;
    const double x = static_cast<double>(i);
    store.record(key(MetricKind::kRequestsPerSecond), t, 100.0 + x);
    store.record(key(MetricKind::kActiveServers), t, active);
    store.record(key(MetricKind::kLatencyP95Ms), t, 20.0 + 0.5 * x);
    store.record(key(MetricKind::kCpuPercentAttributed), t, 40.0 + 0.25 * x);
  }
  return store;
}

/// A sealed feed over a complete recording: trace replay's backend.
LiveFeedBackend::Options sealed_options(std::size_t serving = 8,
                                        SimTime start = 0) {
  LiveFeedBackend::Options opt;
  opt.pool_size = 10;
  opt.serving = serving;
  opt.start = start;
  opt.window_seconds = kWindow;
  opt.sealed = true;
  return opt;
}

TEST(LiveFeedBackend, SealedObserveReturnsConsecutiveWindowSlices) {
  const MetricStore trace = make_trace(10);
  LiveFeedBackend backend(&trace, sealed_options());
  EXPECT_EQ(backend.pool_size(), 10u);
  EXPECT_EQ(backend.serving_count(), 8u);
  EXPECT_EQ(backend.feed_end(), 10 * kWindow);

  const ExperimentObservations first = backend.observe(4 * kWindow);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_DOUBLE_EQ(first.total_rps[0], 100.0 * 8.0);
  EXPECT_DOUBLE_EQ(first.servers[0], 8.0);
  EXPECT_DOUBLE_EQ(first.latency_p95_ms[3], 21.5);
  EXPECT_DOUBLE_EQ(first.cpu_pct[3], 40.75);
  EXPECT_EQ(backend.cursor(), 4 * kWindow);

  const ExperimentObservations second = backend.observe(6 * kWindow);
  ASSERT_EQ(second.size(), 6u);
  EXPECT_DOUBLE_EQ(second.total_rps[0], 104.0 * 8.0);
  EXPECT_EQ(backend.cursor(), backend.feed_end());

  // A range straddling the eviction cutoff yields exactly the surviving
  // raw windows: retention 4 windows behind watermark 9 keeps 5..9.
  MetricStore evicted = make_trace(10);
  evicted.set_retention(4 * kWindow);
  ASSERT_EQ(evicted.evicted_before(), 5 * kWindow);
  const ExperimentObservations straddle =
      observations_between(evicted, 0, 0, 2 * kWindow, 8 * kWindow);
  ASSERT_EQ(straddle.size(), 3u);
  for (std::size_t i = 0; i < straddle.size(); ++i) {
    const double x = static_cast<double>(5 + i);
    EXPECT_EQ(straddle.total_rps[i], (100.0 + x) * 8.0) << i;
    EXPECT_EQ(straddle.servers[i], 8.0) << i;
    EXPECT_EQ(straddle.latency_p95_ms[i], 20.0 + 0.5 * x) << i;
    EXPECT_EQ(straddle.cpu_pct[i], 40.0 + 0.25 * x) << i;
  }
}

TEST(LiveFeedBackend, SealedObservationsMatchTheSimBackendOnTheSameStore) {
  // The two backends share observations_between, so identical stores must
  // yield identical observation vectors — the bit-for-bit guarantee the
  // trace round trip rests on. Drive a real fleet, then replay its store.
  const sim::MicroserviceCatalog catalog;
  sim::FleetConfig config = sim::single_pool_fleet(catalog, "D", 12, 5);
  sim::FleetSimulator fleet(std::move(config), catalog);
  SimPoolBackend live(&fleet, 0, 0);
  const ExperimentObservations from_sim = live.observe(6 * 3600);

  LiveFeedBackend::Options opt;
  opt.pool_size = fleet.pool_size(0, 0);
  opt.serving = fleet.serving_count(0, 0);
  opt.start = 0;
  opt.window_seconds = fleet.config().window_seconds;
  opt.sealed = true;
  LiveFeedBackend replayed(&fleet.store(), opt);
  const ExperimentObservations from_trace = replayed.observe(6 * 3600);

  ASSERT_EQ(from_trace.size(), from_sim.size());
  for (std::size_t i = 0; i < from_sim.size(); ++i) {
    EXPECT_EQ(from_trace.total_rps[i], from_sim.total_rps[i]) << i;
    EXPECT_EQ(from_trace.servers[i], from_sim.servers[i]) << i;
    EXPECT_EQ(from_trace.latency_p95_ms[i], from_sim.latency_p95_ms[i]) << i;
    EXPECT_EQ(from_trace.cpu_pct[i], from_sim.cpu_pct[i]) << i;
  }
}

TEST(LiveFeedBackend,
     SealedNonMultipleDurationOvershootsToTheWindowGridLikeTheSim) {
  // FleetSimulator::run_until steps whole windows past a non-multiple
  // horizon; the trace cursor must land on the same boundary or every
  // later observation would be shifted against the recording.
  const MetricStore trace = make_trace(10);
  LiveFeedBackend backend(&trace, sealed_options());
  const ExperimentObservations obs = backend.observe(kWindow * 5 / 2);
  EXPECT_EQ(obs.size(), 3u);               // ceil(2.5 windows) observed...
  EXPECT_EQ(backend.cursor(), 3 * kWindow);  // ...and cursor on the grid
}

TEST(LiveFeedBackend, SealedThrowsWhenTheTraceRunsOut) {
  const MetricStore trace = make_trace(5);
  LiveFeedBackend backend(&trace, sealed_options());
  (void)backend.observe(3 * kWindow);
  try {
    (void)backend.observe(3 * kWindow);  // only 2 windows remain
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trace exhausted"),
              std::string::npos)
        << e.what();
  }
  // The failed observation must not advance the cursor.
  EXPECT_EQ(backend.cursor(), 3 * kWindow);
}

TEST(LiveFeedBackend, SealedTryObservePastTheEndThrowsInsteadOfPending) {
  // A sealed recording cannot grow, so "pending" would never resolve: the
  // non-blocking path must name the end of the trace as observe() does.
  const MetricStore trace = make_trace(5);
  LiveFeedBackend backend(&trace, sealed_options());
  ASSERT_TRUE(backend.try_observe(3 * kWindow).has_value());
  try {
    (void)backend.try_observe(3 * kWindow);  // only 2 windows remain
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace exhausted at t=" + std::to_string(3 * kWindow)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("recording ends at t=" + std::to_string(5 * kWindow)),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(backend.cursor(), 3 * kWindow);
}

TEST(LiveFeedBackend, SealedSetServingCountAcceptsTheRecordedReduction) {
  MetricStore trace = make_trace(4, 8.0);
  const SeriesKey active{0, 0, SeriesKey::kPoolScope,
                         MetricKind::kActiveServers};
  // Windows 4..5 recorded with 6 active servers (the recorded experiment
  // reduced the pool); maintenance-style dips below the control are legal.
  trace.record(active, 4 * kWindow, 6.0);
  trace.record(active, 5 * kWindow, 5.0);

  LiveFeedBackend backend(&trace, sealed_options(8, 4 * kWindow));
  EXPECT_NO_THROW(backend.set_serving_count(6));
  EXPECT_EQ(backend.serving_count(), 6u);
  EXPECT_NO_THROW(backend.set_serving_count(7));  // recorded 6 <= 7: fine
}

TEST(LiveFeedBackend, SealedSetServingCountRejectsDivergenceFromTheRecording) {
  const MetricStore trace = make_trace(6, 8.0);
  LiveFeedBackend backend(&trace, sealed_options());
  try {
    backend.set_serving_count(5);  // trace shows 8 active at the cursor
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(backend.serving_count(), 8u);  // rejected change not adopted
}

TEST(LiveFeedBackend, SealedSetServingCountPastTheRecordingIsUnchecked) {
  const MetricStore trace = make_trace(4);
  LiveFeedBackend backend(&trace, sealed_options());
  (void)backend.observe(4 * kWindow);
  // Cursor is at the end of the trace — the planner's final adoption of
  // its recommendation has no recorded window to validate against.
  EXPECT_NO_THROW(backend.set_serving_count(3));
  EXPECT_EQ(backend.serving_count(), 3u);
}

TEST(LiveFeedBackend, SealedRejectsInvalidConstructionAndArguments) {
  const MetricStore trace = make_trace(4);
  EXPECT_THROW(LiveFeedBackend(nullptr, sealed_options()),
               std::invalid_argument);

  LiveFeedBackend::Options bad_window = sealed_options();
  bad_window.window_seconds = 0;
  EXPECT_THROW(LiveFeedBackend(&trace, bad_window),
               std::invalid_argument);

  LiveFeedBackend::Options empty_pool = sealed_options();
  empty_pool.pool_size = 0;
  EXPECT_THROW(LiveFeedBackend(&trace, empty_pool),
               std::invalid_argument);

  LiveFeedBackend::Options over_serving = sealed_options(11);
  EXPECT_THROW(LiveFeedBackend(&trace, over_serving),
               std::invalid_argument);

  const MetricStore empty;
  EXPECT_THROW(LiveFeedBackend(&empty, sealed_options()),
               std::invalid_argument);

  LiveFeedBackend backend(&trace, sealed_options());
  EXPECT_THROW(backend.set_serving_count(0), std::invalid_argument);
  EXPECT_THROW(backend.set_serving_count(11), std::invalid_argument);
  EXPECT_THROW((void)backend.observe(0), std::invalid_argument);
  EXPECT_THROW((void)backend.observe(-kWindow), std::invalid_argument);
}

}  // namespace
}  // namespace headroom::core
