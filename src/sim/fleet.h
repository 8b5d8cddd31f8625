// Fleet simulator: the production-trace substitute.
//
// Steps the whole topology forward one telemetry window at a time. Each
// window it (1) evaluates regional demand (diurnal curves, event
// multipliers, outage failover), (2) splits each pool's workload evenly
// over its online servers (load balancer), (3) evaluates every server's
// response model, and (4) emits telemetry: pool-scope series, per-server
// daily CPU digests, a fleet-wide CPU sample histogram, and availability
// accounting.
//
// Server-count experiment controls (`set_serving_count`) implement the
// paper's §II-B2 production reduction experiments: removed servers stop
// taking traffic (and stop being sampled) while the pool's total workload
// is unchanged, so per-server load rises.
//
// Stepping parallelizes across pools (`FleetConfig::threads`): pools are
// partitioned into per-thread shards (balanced by server count, with per-DC
// affinity), every shard steps its pools into a private telemetry buffer,
// and the buffers are merged into the store/ledger/histogram at each window
// barrier in fixed shard order. Because per-(server, window) noise streams
// are derived from stable hashes (sim/rng.h) and all cross-shard sinks are
// either keyed single-writer series or commutative sums, results are
// bit-identical to the serial walk for any thread count.
//
// Pool and server state is stored struct-of-arrays: one column per pool
// attribute, and fleet-wide server arenas (generation bytes, online flags,
// CPU digests) indexed through per-pool offsets. Pools are physically
// ordered shard-by-shard, so a stepping lane walks one contiguous index
// range and the columns it touches are dense in cache — at
// hundreds-of-thousands of servers the AoS layout's pointer-chasing and
// per-pool heap blocks dominated the step time. `topology_order_` preserves
// the (dc, pool) walk for order-sensitive outputs (per-server-day flushes).
//
// Two large-fleet controls gate work that exact paper reproductions need
// but million-server capacity studies do not: FleetConfig::
// per_server_accounting (ledger + per-server-day digests) and
// FleetConfig::quiescent_dead_band (hold a pool's telemetry while its
// workload is flat instead of re-evaluating every server every window).
// Both default to the exact behavior; goldens pin it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/failover.h"
#include "sim/maintenance.h"
#include "sim/microservice.h"
#include "sim/response.h"
#include "sim/topology.h"
#include "sim/worker_pool.h"
#include "stats/histogram.h"
#include "telemetry/availability.h"
#include "telemetry/metric_store.h"
#include "telemetry/percentile_digest.h"
#include "workload/diurnal.h"

namespace headroom::sim {

using telemetry::SimTime;

/// Binning of the fleet-wide CPU sample histogram (Fig. 13) — shared by the
/// merged histogram and every shard's per-window delta, which must agree
/// exactly for Histogram::merge to accept them.
inline constexpr double kCpuHistogramLo = 0.0;
inline constexpr double kCpuHistogramHi = 100.0;
inline constexpr std::size_t kCpuHistogramBins = 100;

/// One server's CPU percentile summary for one day — the row type behind
/// Figs. 3 and 12.
struct ServerDayCpu {
  std::uint32_t datacenter = 0;
  std::uint32_t pool = 0;
  std::uint32_t server = 0;
  std::int64_t day = 0;
  telemetry::PercentileSnapshot cpu;  ///< Of kCpuPercentTotal samples.
};

class FleetSimulator {
 public:
  FleetSimulator(FleetConfig config, const MicroserviceCatalog& catalog);

  /// Advances simulation to `end` (seconds), stepping one window at a time.
  void run_until(SimTime end);
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  // --- Experiment controls ------------------------------------------------
  /// Caps how many of the pool's servers take traffic (<= pool size).
  void set_serving_count(std::uint32_t dc, std::uint32_t pool,
                         std::size_t servers);
  [[nodiscard]] std::size_t serving_count(std::uint32_t dc,
                                          std::uint32_t pool) const;
  [[nodiscard]] std::size_t pool_size(std::uint32_t dc,
                                      std::uint32_t pool) const;

  // --- Outputs --------------------------------------------------------------
  [[nodiscard]] const telemetry::MetricStore& store() const noexcept {
    return store_;
  }
  /// Bounds the store to a rolling window (0 = keep everything): evicted
  /// samples are dropped. Serve mode sets this
  /// once steady-state begins so resident telemetry is O(retention), not
  /// O(elapsed). See MetricStore::set_retention.
  void set_store_retention(SimTime retention) {
    store_.set_retention(retention);
  }
  [[nodiscard]] const telemetry::AvailabilityLedger& ledger() const noexcept {
    return ledger_;
  }
  /// All per-server window CPU (total) samples, fleet-wide (Fig. 13).
  [[nodiscard]] const stats::Histogram& cpu_sample_histogram() const noexcept {
    return cpu_histogram_;
  }
  /// Completed per-server-day CPU digests (days close on day boundaries;
  /// call finish_day() after run_until to close the last partial day).
  [[nodiscard]] const std::vector<ServerDayCpu>& server_day_cpu() const noexcept {
    return server_days_;
  }
  /// Closes the currently accumulating day's digests.
  void finish_day();

  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }

  /// Demand oracle (noise-free): service-level RPS arriving at `dc` at `t`
  /// after events and outage failover. Exposed for tests and benches.
  [[nodiscard]] double datacenter_demand(SimTime t, std::uint32_t dc) const;

  /// Number of (dc, pool) pairs.
  [[nodiscard]] std::size_t total_pools() const noexcept {
    return pool_dc_.size();
  }
  /// Total configured servers.
  [[nodiscard]] std::size_t total_servers() const noexcept {
    return server_begin_.empty() ? 0 : server_begin_.back();
  }
  /// Resolved stepping lanes (config threads after hardware-concurrency
  /// resolution and pool-count clamping) == number of shards.
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return shard_begin_.empty() ? 0 : shard_begin_.size() - 1;
  }

 private:
  /// One shard's private per-window telemetry, merged at the window barrier
  /// and then cleared (allocations are retained across windows).
  struct ShardTelemetry {
    telemetry::MetricBuffer metrics;
    std::vector<telemetry::AvailabilityEvent> availability;
    stats::Histogram cpu_histogram{kCpuHistogramLo, kCpuHistogramHi,
                                   kCpuHistogramBins};
    /// Per-pool online-flag scratch, reused across windows (lives here so
    /// each stepping lane has its own; not part of the merged telemetry).
    std::vector<std::uint8_t> online_scratch;

    void clear() noexcept {
      metrics.clear();
      availability.clear();
      cpu_histogram.reset();
    }
  };

  /// Last full evaluation of one pool, replayed while the pool is inside
  /// the quiescent dead band (only allocated when the dead band is on).
  struct PoolCache {
    bool valid = false;
    bool dark = false;            ///< Cached window had zero servers online.
    std::uint32_t held = 0;       ///< Windows replayed since the full eval.
    double pool_rps = 0.0;        ///< Noise-free workload at the full eval.
    std::size_t serving = 0;
    std::size_t online = 0;
    std::array<double, 11> recorded{};  ///< The 11 pool-scope values.
    stats::Histogram cpu_histogram{kCpuHistogramLo, kCpuHistogramHi,
                                   kCpuHistogramBins};
    std::vector<std::uint8_t> online_flags;  ///< Per rotation member.
    std::vector<double> cpu_totals;  ///< Per member (accounting mode only).
  };

  void step(SimTime t);
  /// Steps pool `p` for the window starting at `t`, writing telemetry into
  /// `out` only (called concurrently for pools of different shards).
  void step_pool(std::size_t p, SimTime t, std::span<const double> demand,
                 std::uint64_t window_index, ShardTelemetry& out);
  /// Dead-band fast path: re-emits pool `p`'s cached window at `t`.
  /// Returns false when the pool must be fully evaluated instead.
  [[nodiscard]] bool replay_quiescent(std::size_t p, SimTime t,
                                      double pool_rps, ShardTelemetry& out);
  void flush_digests(std::int64_t day);
  [[nodiscard]] std::vector<double> regional_demands(SimTime t) const;
  /// Noise-free pool workload for the window at `t` (demand fan-out plus
  /// the pool's burst window) — the dead-band control signal.
  [[nodiscard]] double pool_workload(std::size_t p, SimTime t,
                                     std::span<const double> demand) const;
  [[nodiscard]] std::size_t find_pool(std::uint32_t dc,
                                      std::uint32_t pool,
                                      const char* caller) const;

  FleetConfig config_;
  std::vector<workload::DiurnalTraffic> regional_traffic_;
  /// Outage redistribution, share matrix precomputed from the topology.
  std::unique_ptr<FailoverPolicy> failover_;

  // --- Pool state, struct-of-arrays ---------------------------------------
  // One entry per (dc, pool), physically ordered shard-by-shard; shard s
  // owns indices [shard_begin_[s], shard_begin_[s+1]).
  std::vector<std::uint32_t> pool_dc_;
  std::vector<std::uint32_t> pool_id_;
  std::vector<const MicroserviceProfile*> pool_profile_;
  std::vector<double> pool_demand_multiplier_;
  std::vector<double> pool_burst_multiplier_;
  std::vector<double> pool_burst_start_hour_;
  std::vector<double> pool_burst_hours_;
  std::vector<double> pool_hourly_spike_pct_;
  std::vector<double> pool_tz_offset_;
  std::vector<std::size_t> pool_serving_;       ///< Experiment control.
  std::vector<MaintenanceSchedule> pool_maintenance_;
  std::vector<PoolCache> pool_cache_;           ///< Empty when dead band off.

  // --- Server arenas -------------------------------------------------------
  // Pool p's servers occupy [server_begin_[p], server_begin_[p+1]).
  std::vector<std::size_t> server_begin_;
  std::vector<std::uint8_t> server_generation_;  ///< Index into pool models.
  std::vector<std::uint8_t> was_online_;         ///< Restart detection.
  std::vector<telemetry::PercentileDigest> cpu_digests_;  ///< Accounting only.

  // --- Response-model arena ------------------------------------------------
  // Pool p's deduplicated generation models occupy
  // [model_begin_[p], model_begin_[p+1]).
  std::vector<std::size_t> model_begin_;
  std::vector<ResponseModel> models_;

  // --- Shard layout --------------------------------------------------------
  std::vector<std::size_t> shard_begin_;     ///< Size lanes+1.
  /// Physical pool indices sorted by (dc, pool): the original topology walk
  /// for order-sensitive outputs.
  std::vector<std::size_t> topology_order_;

  std::vector<ShardTelemetry> shard_telemetry_;
  std::unique_ptr<WorkerPool> workers_;           ///< Null when serial.
  telemetry::MetricStore store_;
  telemetry::AvailabilityLedger ledger_;
  stats::Histogram cpu_histogram_{kCpuHistogramLo, kCpuHistogramHi,
                                  kCpuHistogramBins};
  std::vector<ServerDayCpu> server_days_;
  SimTime now_ = 0;
  std::int64_t current_day_ = 0;
};

}  // namespace headroom::sim
