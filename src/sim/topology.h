// Fleet topology configuration: regions, datacenters, pools.
//
// The paper's service spans 9 geographic regions, each with datacenters
// hosting one pool per micro-service. `standard_fleet()` builds that
// default shape with pool sizes derived from regional demand and each
// service's operating point (target P95 RPS/server), optionally with the
// heterogeneous hot/warm/cool utilization mix the fleet-wide CDFs
// (Figs. 12/13) exhibit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/hardware.h"
#include "sim/maintenance.h"
#include "sim/microservice.h"
#include "workload/diurnal.h"
#include "workload/events.h"

namespace headroom::sim {

struct PoolConfig {
  std::string service;  ///< Catalog name ("A".."I").
  std::size_t servers = 1;
  std::vector<HardwareShare> hardware = {HardwareShare{}};
  MaintenancePolicy maintenance;
  std::vector<PoolIncident> incidents;
  /// Multiplier on this pool's demand relative to the standard sizing; >1
  /// simulates an under-provisioned (hot) pool.
  double demand_multiplier = 1.0;
  /// Daily burst window (local time): demand is additionally multiplied by
  /// `burst_multiplier` for `burst_hours` starting at `burst_start_hour`.
  /// Models the rare-but-tall CPU spikes of paper Figs. 12/13 (batch jobs,
  /// cache refreshes) without sustained heat.
  double burst_multiplier = 1.0;
  double burst_start_hour = 13.0;
  double burst_hours = 0.0;
  /// Extra %CPU during the first window of every hour (log rotation /
  /// upload spikes), on top of the profile's own spike behaviour. This is
  /// what gives bursty pools a max-CPU above 40% while keeping the count
  /// of >40% samples negligible (paper Figs. 12 vs 13).
  double hourly_spike_extra_pct = 0.0;
};

struct DatacenterConfig {
  std::string name = "DC";
  double timezone_offset_hours = 0.0;
  /// Regional demand weight (peak regional demand = weight * diurnal peak).
  double demand_weight = 1.0;
  std::vector<PoolConfig> pools;
};

/// How a down datacenter's demand redistributes to survivors (see
/// sim/failover.h for the policy semantics). Lives here so FleetConfig can
/// carry the selection without a circular include.
enum class FailoverPolicyKind {
  kNearestSurvivor,  ///< Capacity x geographic affinity (the default).
  kLatencyAware,     ///< Everything to the closest survivor(s).
  kCostAware,        ///< Proportional to demand weight, geography-blind.
};

struct FleetConfig {
  std::vector<DatacenterConfig> datacenters;
  workload::DiurnalParams diurnal;   ///< Per-unit-weight regional demand.
  workload::EventSchedule events;
  telemetry::SimTime window_seconds = 120;  ///< Sampling window == step.
  /// Outage redistribution policy. The default reproduces the original
  /// hardcoded nearest-survivor behaviour bit for bit; goldens pin it.
  FailoverPolicyKind failover = FailoverPolicyKind::kNearestSurvivor;
  std::uint64_t seed = 1;
  /// Stepping lanes: pools are sharded across this many threads, each
  /// writing a private telemetry buffer merged at every window barrier in
  /// shard order — so any thread count yields bit-identical results for a
  /// given seed. 0 means hardware concurrency; clamped to the pool count.
  std::size_t threads = 1;
  bool record_pool_series = true;    ///< Pool-scope series into the store.
  /// Per-workload metric attribution (methodology Step 1). When false, only
  /// kCpuPercentTotal is meaningful and includes background noise —
  /// the "blindly measured" mode whose fits come out noisy.
  bool attribution_enabled = true;
  /// Scales every pool's background (non-primary-workload) CPU; >1 models
  /// pools running extra unaccounted workloads (the not-tightly-bound
  /// cohort of paper §II-A2).
  double background_noise_scale = 1.0;
  /// Quiescent-pool dead band for event-driven stepping. 0 (the default)
  /// evaluates every server of every pool every window — the exact mode all
  /// golden outputs pin. When > 0, a pool whose noise-free workload moved
  /// less than this fraction since its last full evaluation (and which has
  /// no serving change, no scheduled incident, and no hourly-spike window
  /// pending) re-emits its previous window's telemetry instead of
  /// re-evaluating each server. Deterministic and thread-count-invariant,
  /// but an approximation: maintenance churn inside a held span is not
  /// re-observed. Million-server scenarios run with ~0.02.
  double quiescent_dead_band = 0.0;
  /// Per-server bookkeeping: the availability ledger and the per-server-day
  /// CPU digests behind Figs. 3/12/14/15. On (the default) for every paper
  /// figure that needs them; switching it off removes the O(servers)
  /// ledger/digest work per window while pool-scope series, restart
  /// penalties, and the fleet CPU histogram stay bit-identical — which is
  /// what makes x100 fleets steppable on one machine.
  bool per_server_accounting = true;
};

struct StandardFleetOptions {
  /// Services to instantiate in every datacenter.
  std::vector<std::string> services = {"A", "B", "C", "D", "E", "F", "G"};
  /// Peak service-level demand (RPS) for a weight-1.0 region.
  double regional_peak_rps = 20000.0;
  /// Introduce hot/warm pools for the fleet-utilization distributions.
  bool heterogeneous_utilization = false;
  /// Give pool "I" (when instantiated) a 50/50 two-generation hardware mix.
  bool hardware_refresh_in_pool_i = true;
  std::uint64_t seed = 1;
};

/// Nine regions with staggered timezones and unequal demand weights.
[[nodiscard]] std::vector<DatacenterConfig> standard_datacenters();

/// Builds the full default fleet (see file comment).
[[nodiscard]] FleetConfig standard_fleet(const MicroserviceCatalog& catalog,
                                         const StandardFleetOptions& options = {});

/// Pool sizing rule: servers = ceil(peak_pool_rps / target_p95_rps).
[[nodiscard]] std::size_t size_pool(double peak_pool_rps,
                                    double target_rps_per_server_p95);

/// Experiment preset: one datacenter hosting one pool of `servers`,
/// maintenance-quiet, demand sized so the P95 per-server RPS lands on the
/// service's published operating point (pool B: 377, pool D: 77.7 — the
/// "Original Server Count" rows of Tables II/III). This is the
/// configuration behind the §III-A reduction-experiment reproductions.
[[nodiscard]] FleetConfig single_pool_fleet(const MicroserviceCatalog& catalog,
                                            const std::string& service,
                                            std::size_t servers,
                                            std::uint64_t seed = 5);

/// Experiment preset: the same micro-service pool replicated into
/// `datacenter_count` regions with staggered timezones — the shape behind
/// Fig. 2 (six DCs) and Fig. 6 (five DCs).
[[nodiscard]] FleetConfig multi_dc_pool_fleet(const MicroserviceCatalog& catalog,
                                              const std::string& service,
                                              std::size_t datacenter_count,
                                              std::size_t servers_per_pool,
                                              std::uint64_t seed = 5);

}  // namespace headroom::sim
