#include "core/trace_backend.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/sim_backend.h"
#include "sim/fleet.h"
#include "sim/topology.h"

namespace headroom::core {
namespace {

using telemetry::MetricKind;
using telemetry::MetricStore;
using telemetry::SeriesKey;
using telemetry::SimTime;

constexpr SimTime kWindow = 120;

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

TraceExperimentBackend::Options options_for(std::size_t serving = 8,
                                            SimTime start = 0) {
  TraceExperimentBackend::Options opt;
  opt.pool_size = 10;
  opt.serving = serving;
  opt.start = start;
  opt.window_seconds = kWindow;
  return opt;
}

TEST(TraceBackend, ObserveReturnsConsecutiveWindowSlices) {
  const MetricStore trace = make_trace(10);
  TraceExperimentBackend backend(&trace, options_for());
  EXPECT_EQ(backend.pool_size(), 10u);
  EXPECT_EQ(backend.serving_count(), 8u);
  EXPECT_EQ(backend.trace_end(), 10 * kWindow);

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
  EXPECT_EQ(backend.cursor(), backend.trace_end());

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

TEST(TraceBackend, ObservationsMatchTheSimBackendOnTheSameStore) {
  // The two backends share observations_between, so identical stores must
  // yield identical observation vectors — the bit-for-bit guarantee the
  // trace round trip rests on. Drive a real fleet, then replay its store.
  const sim::MicroserviceCatalog catalog;
  sim::FleetConfig config = sim::single_pool_fleet(catalog, "D", 12, 5);
  sim::FleetSimulator fleet(std::move(config), catalog);
  SimPoolBackend live(&fleet, 0, 0);
  const ExperimentObservations from_sim = live.observe(6 * 3600);

  TraceExperimentBackend::Options opt;
  opt.pool_size = fleet.pool_size(0, 0);
  opt.serving = fleet.serving_count(0, 0);
  opt.start = 0;
  opt.window_seconds = fleet.config().window_seconds;
  TraceExperimentBackend replayed(&fleet.store(), opt);
  const ExperimentObservations from_trace = replayed.observe(6 * 3600);

  ASSERT_EQ(from_trace.size(), from_sim.size());
  for (std::size_t i = 0; i < from_sim.size(); ++i) {
    EXPECT_EQ(from_trace.total_rps[i], from_sim.total_rps[i]) << i;
    EXPECT_EQ(from_trace.servers[i], from_sim.servers[i]) << i;
    EXPECT_EQ(from_trace.latency_p95_ms[i], from_sim.latency_p95_ms[i]) << i;
    EXPECT_EQ(from_trace.cpu_pct[i], from_sim.cpu_pct[i]) << i;
  }
}

TEST(TraceBackend, NonMultipleDurationOvershootsToTheWindowGridLikeTheSim) {
  // FleetSimulator::run_until steps whole windows past a non-multiple
  // horizon; the trace cursor must land on the same boundary or every
  // later observation would be shifted against the recording.
  const MetricStore trace = make_trace(10);
  TraceExperimentBackend backend(&trace, options_for());
  const ExperimentObservations obs = backend.observe(kWindow * 5 / 2);
  EXPECT_EQ(obs.size(), 3u);               // ceil(2.5 windows) observed...
  EXPECT_EQ(backend.cursor(), 3 * kWindow);  // ...and cursor on the grid
}

TEST(TraceBackend, ThrowsWhenTheTraceRunsOut) {
  const MetricStore trace = make_trace(5);
  TraceExperimentBackend backend(&trace, options_for());
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

TEST(TraceBackend, SetServingCountAcceptsTheRecordedReduction) {
  MetricStore trace = make_trace(4, 8.0);
  const SeriesKey active{0, 0, SeriesKey::kPoolScope,
                         MetricKind::kActiveServers};
  // Windows 4..5 recorded with 6 active servers (the recorded experiment
  // reduced the pool); maintenance-style dips below the control are legal.
  trace.record(active, 4 * kWindow, 6.0);
  trace.record(active, 5 * kWindow, 5.0);

  TraceExperimentBackend backend(&trace, options_for(8, 4 * kWindow));
  EXPECT_NO_THROW(backend.set_serving_count(6));
  EXPECT_EQ(backend.serving_count(), 6u);
  EXPECT_NO_THROW(backend.set_serving_count(7));  // recorded 6 <= 7: fine
}

TEST(TraceBackend, SetServingCountRejectsDivergenceFromTheRecording) {
  const MetricStore trace = make_trace(6, 8.0);
  TraceExperimentBackend backend(&trace, options_for());
  try {
    backend.set_serving_count(5);  // trace shows 8 active at the cursor
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(backend.serving_count(), 8u);  // rejected change not adopted
}

TEST(TraceBackend, SetServingCountPastTheRecordingIsUnchecked) {
  const MetricStore trace = make_trace(4);
  TraceExperimentBackend backend(&trace, options_for());
  (void)backend.observe(4 * kWindow);
  // Cursor is at the end of the trace — the planner's final adoption of
  // its recommendation has no recorded window to validate against.
  EXPECT_NO_THROW(backend.set_serving_count(3));
  EXPECT_EQ(backend.serving_count(), 3u);
}

TEST(TraceBackend, RejectsInvalidConstructionAndArguments) {
  const MetricStore trace = make_trace(4);
  EXPECT_THROW(TraceExperimentBackend(nullptr, options_for()),
               std::invalid_argument);

  TraceExperimentBackend::Options bad_window = options_for();
  bad_window.window_seconds = 0;
  EXPECT_THROW(TraceExperimentBackend(&trace, bad_window),
               std::invalid_argument);

  TraceExperimentBackend::Options empty_pool = options_for();
  empty_pool.pool_size = 0;
  EXPECT_THROW(TraceExperimentBackend(&trace, empty_pool),
               std::invalid_argument);

  TraceExperimentBackend::Options over_serving = options_for(11);
  EXPECT_THROW(TraceExperimentBackend(&trace, over_serving),
               std::invalid_argument);

  const MetricStore empty;
  EXPECT_THROW(TraceExperimentBackend(&empty, options_for()),
               std::invalid_argument);

  TraceExperimentBackend backend(&trace, options_for());
  EXPECT_THROW(backend.set_serving_count(0), std::invalid_argument);
  EXPECT_THROW(backend.set_serving_count(11), std::invalid_argument);
  EXPECT_THROW((void)backend.observe(0), std::invalid_argument);
  EXPECT_THROW((void)backend.observe(-kWindow), std::invalid_argument);
}

}  // namespace
}  // namespace headroom::core
