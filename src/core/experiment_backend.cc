#include "core/experiment_backend.h"

#include <algorithm>

#include "query/query_engine.h"

namespace headroom::core {

namespace {

using telemetry::MetricKind;
using telemetry::SeriesKey;
using telemetry::SimTime;

[[nodiscard]] SeriesKey pool_key(std::uint32_t datacenter, std::uint32_t pool,
                                 MetricKind metric) {
  return SeriesKey{datacenter, pool, SeriesKey::kPoolScope, metric};
}

}  // namespace

void ExperimentObservations::append(const ExperimentObservations& other) {
  total_rps.insert(total_rps.end(), other.total_rps.begin(),
                   other.total_rps.end());
  servers.insert(servers.end(), other.servers.begin(), other.servers.end());
  latency_p95_ms.insert(latency_p95_ms.end(), other.latency_p95_ms.begin(),
                        other.latency_p95_ms.end());
  cpu_pct.insert(cpu_pct.end(), other.cpu_pct.begin(), other.cpu_pct.end());
}

ExperimentObservations observations_between(const query::QueryEngine& engine,
                                            std::uint32_t datacenter,
                                            std::uint32_t pool, SimTime from,
                                            SimTime to) {
  // Start at the raw-coverage boundary: a series created after the last
  // retention sweep can still hold windows older than the cutoff, and every
  // series must read as evicted there alike. Zero-copy raw slices,
  // bit-identical to reading the series directly (golden outputs depend on
  // these bytes).
  from = std::max(from, engine.store().evicted_before());
  const auto rps = engine.raw_window(
      pool_key(datacenter, pool, MetricKind::kRequestsPerSecond), from, to);
  const auto active = engine.raw_window(
      pool_key(datacenter, pool, MetricKind::kActiveServers), from, to);
  const auto latency = engine.raw_window(
      pool_key(datacenter, pool, MetricKind::kLatencyP95Ms), from, to);
  const auto cpu = engine.raw_window(
      pool_key(datacenter, pool, MetricKind::kCpuPercentAttributed), from, to);

  // All four series share window boundaries by construction; align via
  // the shared timestamps anyway for safety.
  const telemetry::AlignedPair rps_active = telemetry::align(rps, active);
  const telemetry::AlignedPair lat_cpu = telemetry::align(latency, cpu);

  ExperimentObservations obs;
  const std::size_t n = std::min(rps_active.x.size(), lat_cpu.x.size());
  obs.total_rps.reserve(n);
  obs.servers.reserve(n);
  obs.latency_p95_ms.reserve(n);
  obs.cpu_pct.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs.total_rps.push_back(rps_active.x[i] * rps_active.y[i]);
    obs.servers.push_back(rps_active.y[i]);
    obs.latency_p95_ms.push_back(lat_cpu.x[i]);
    obs.cpu_pct.push_back(lat_cpu.y[i]);
  }
  return obs;
}

ExperimentObservations observations_between(
    const telemetry::MetricStore& store, std::uint32_t datacenter,
    std::uint32_t pool, SimTime from, SimTime to) {
  return observations_between(query::QueryEngine(&store), datacenter, pool,
                              from, to);
}

}  // namespace headroom::core
