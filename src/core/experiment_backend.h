// Abstraction over "a pool we can run reduction experiments on".
//
// The RSM planner (paper §II-B2) drives production pools: set a server
// count, let traffic flow for ~a week, read back observations. In this
// repository the backend is the fleet simulator (core/sim_backend.h); in a
// real deployment it would be the capacity-orchestration API. The planner
// only ever sees this interface — the same black-box posture the paper
// takes toward the service.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "query/query_engine.h"
#include "telemetry/metric_store.h"
#include "telemetry/time_series.h"

namespace headroom::core {

/// Simultaneous pool observations, one entry per telemetry window.
struct ExperimentObservations {
  std::vector<double> total_rps;     ///< Pool-total workload.
  std::vector<double> servers;       ///< Active serving servers.
  std::vector<double> latency_p95_ms;
  std::vector<double> cpu_pct;       ///< Mean attributed %CPU per server.

  [[nodiscard]] std::size_t size() const noexcept { return total_rps.size(); }
  /// Concatenates another batch (accumulating history across iterations).
  void append(const ExperimentObservations& other);
};

class PoolExperimentBackend {
 public:
  virtual ~PoolExperimentBackend() = default;

  /// Total servers the pool owns (upper bound for serving count).
  [[nodiscard]] virtual std::size_t pool_size() const = 0;
  [[nodiscard]] virtual std::size_t serving_count() const = 0;
  /// Applies a new serving count (the experiment control variable).
  virtual void set_serving_count(std::size_t servers) = 0;
  /// Lets traffic flow for `duration` seconds and returns the windowed
  /// observations from that span.
  virtual ExperimentObservations observe(telemetry::SimTime duration) = 0;

  /// Non-blocking variant for incremental planners: returns std::nullopt
  /// when the span is not yet covered (a live feed still waiting on data),
  /// leaving the backend's position untouched so the same call can be
  /// retried once more windows arrive. Backends that produce their own data
  /// on demand (the simulator) never report pending — the default simply
  /// completes through observe().
  virtual std::optional<ExperimentObservations> try_observe(
      telemetry::SimTime duration) {
    return observe(duration);
  }
};

/// Assembles the experiment observations of one pool from its pool-scope
/// series over [from, to), read through the query layer's raw windows.
/// This is the single definition of "what an observation is" — the
/// simulator backend reads its live store through it and the trace backend
/// reads a recorded store through it, so a lossless trace round-trip
/// reproduces observations bit-for-bit: zero-copy window slices aligned on
/// window start. Windows already evicted by retention are skipped; the
/// result holds exactly the surviving windows of the range.
[[nodiscard]] ExperimentObservations observations_between(
    const query::QueryEngine& engine, std::uint32_t datacenter,
    std::uint32_t pool, telemetry::SimTime from, telemetry::SimTime to);

/// Store-pointed convenience: routes through a QueryEngine over `store`.
[[nodiscard]] ExperimentObservations observations_between(
    const telemetry::MetricStore& store, std::uint32_t datacenter,
    std::uint32_t pool, telemetry::SimTime from, telemetry::SimTime to);

}  // namespace headroom::core
