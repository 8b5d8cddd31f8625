#include "sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/rng.h"

namespace headroom::sim {

namespace {

using telemetry::MetricKind;
using telemetry::SeriesKey;

constexpr double kSecondsPerDay = 86400.0;

/// Upper bound on consecutive dead-band replays of one cached window, so a
/// long flat plateau still refreshes its noise draws and maintenance
/// picture about once an hour (at the default 120 s window).
constexpr std::uint32_t kMaxHeldWindows = 30;

std::size_t resolve_threads(std::size_t configured) {
  if (configured != 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Construction-time pool staging in (dc, pool) order; the constructor
/// reorders it shard-by-shard into the columnar members.
struct StagingPool {
  std::uint32_t dc;
  std::uint32_t pool;
  const MicroserviceProfile* profile;
  double demand_multiplier;
  double burst_multiplier;
  double burst_start_hour;
  double burst_hours;
  double hourly_spike_extra_pct;
  double tz_offset_hours;
  std::vector<std::uint8_t> server_generation;
  std::vector<ResponseModel> models;
  MaintenanceSchedule maintenance;
  std::size_t serving;
};

}  // namespace

FleetSimulator::FleetSimulator(FleetConfig config,
                               const MicroserviceCatalog& catalog)
    : config_(std::move(config)) {
  if (config_.datacenters.empty()) {
    throw std::invalid_argument("FleetSimulator: no datacenters");
  }
  if (config_.window_seconds <= 0) {
    throw std::invalid_argument("FleetSimulator: window must be positive");
  }
  if (config_.quiescent_dead_band < 0.0 || config_.quiescent_dead_band >= 1.0) {
    throw std::invalid_argument(
        "FleetSimulator: quiescent_dead_band must be in [0, 1)");
  }

  regional_traffic_.reserve(config_.datacenters.size());
  for (const DatacenterConfig& dc : config_.datacenters) {
    workload::DiurnalParams params = config_.diurnal;
    params.peak_rps = config_.diurnal.peak_rps * dc.demand_weight;
    params.timezone_offset_hours = dc.timezone_offset_hours;
    regional_traffic_.emplace_back(params);
  }
  failover_ = make_failover_policy(config_.failover, config_.datacenters);

  std::vector<StagingPool> staging;
  for (std::uint32_t d = 0; d < config_.datacenters.size(); ++d) {
    const DatacenterConfig& dc = config_.datacenters[d];
    for (std::uint32_t p = 0; p < dc.pools.size(); ++p) {
      const PoolConfig& pc = dc.pools[p];
      const MicroserviceProfile& profile = catalog.by_name(pc.service);

      StagingPool rt{.dc = d,
                     .pool = p,
                     .profile = &profile,
                     .demand_multiplier = pc.demand_multiplier,
                     .burst_multiplier = pc.burst_multiplier,
                     .burst_start_hour = pc.burst_start_hour,
                     .burst_hours = pc.burst_hours,
                     .hourly_spike_extra_pct = pc.hourly_spike_extra_pct,
                     .tz_offset_hours = dc.timezone_offset_hours,
                     .server_generation = {},
                     .models = {},
                     .maintenance = MaintenanceSchedule(
                         pc.maintenance,
                         mix_seed(config_.seed, 0xFA11, d, p),
                         dc.timezone_offset_hours),
                     .serving = pc.servers};
      for (const PoolIncident& inc : pc.incidents) {
        rt.maintenance.add_incident(inc);
      }

      const std::vector<HardwareGeneration> assignment =
          assign_hardware(pc.hardware, pc.servers);
      rt.server_generation.reserve(pc.servers);
      // Deduplicate response models by generation name. (Keying on the
      // floating-point effective cost wrongly merged distinct generations
      // whose scaled costs happened to collide, even though their latency
      // scale or core counts differed.)
      std::vector<std::string> model_names;
      for (const HardwareGeneration& gen : assignment) {
        std::size_t idx = model_names.size();
        for (std::size_t i = 0; i < model_names.size(); ++i) {
          if (model_names[i] == gen.name) {
            idx = i;
            break;
          }
        }
        if (idx == model_names.size()) {
          rt.models.emplace_back(profile, gen);
          model_names.push_back(gen.name);
        }
        rt.server_generation.push_back(static_cast<std::uint8_t>(idx));
      }
      staging.push_back(std::move(rt));
    }
  }

  // Partition pools into per-thread shards: greedy largest-pool-first onto
  // the least-loaded shard (load = server count), breaking ties toward a
  // shard that already hosts the pool's datacenter. Deterministic, balanced
  // within one pool of optimal, and DC-affine when pool sizes repeat across
  // regions (the standard-fleet shape).
  const std::size_t lanes = std::max<std::size_t>(
      1, std::min(resolve_threads(config_.threads),
                  std::max<std::size_t>(staging.size(), 1)));
  std::vector<std::vector<std::size_t>> shards(lanes);
  std::vector<std::size_t> order(staging.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return staging[a].server_generation.size() >
           staging[b].server_generation.size();
  });
  std::vector<std::size_t> load(lanes, 0);
  std::vector<std::vector<std::uint8_t>> hosts_dc(
      lanes, std::vector<std::uint8_t>(config_.datacenters.size(), 0));
  for (const std::size_t pool_index : order) {
    const std::uint32_t dc = staging[pool_index].dc;
    std::size_t best = 0;
    for (std::size_t s = 1; s < lanes; ++s) {
      if (load[s] < load[best] ||
          (load[s] == load[best] && hosts_dc[s][dc] > hosts_dc[best][dc])) {
        best = s;
      }
    }
    shards[best].push_back(pool_index);
    load[best] += staging[pool_index].server_generation.size();
    hosts_dc[best][dc] = 1;
  }
  // Keep each shard's pools in topology order (cache-friendly, and the
  // serial path then walks pools exactly as the pre-sharding code did).
  for (std::vector<std::size_t>& shard : shards) {
    std::sort(shard.begin(), shard.end());
  }

  // Materialize the struct-of-arrays layout in shard-concatenated physical
  // order: shard s owns the contiguous pool range
  // [shard_begin_[s], shard_begin_[s+1]), and its servers/models are dense
  // sub-ranges of the fleet-wide arenas.
  const std::size_t n = staging.size();
  pool_dc_.reserve(n);
  pool_id_.reserve(n);
  pool_profile_.reserve(n);
  pool_demand_multiplier_.reserve(n);
  pool_burst_multiplier_.reserve(n);
  pool_burst_start_hour_.reserve(n);
  pool_burst_hours_.reserve(n);
  pool_hourly_spike_pct_.reserve(n);
  pool_tz_offset_.reserve(n);
  pool_serving_.reserve(n);
  pool_maintenance_.reserve(n);
  server_begin_.reserve(n + 1);
  server_begin_.push_back(0);
  model_begin_.reserve(n + 1);
  model_begin_.push_back(0);
  shard_begin_.reserve(lanes + 1);
  shard_begin_.push_back(0);
  std::vector<std::size_t> physical_of(n, 0);
  for (const std::vector<std::size_t>& shard : shards) {
    for (const std::size_t staging_index : shard) {
      StagingPool& rt = staging[staging_index];
      physical_of[staging_index] = pool_dc_.size();
      pool_dc_.push_back(rt.dc);
      pool_id_.push_back(rt.pool);
      pool_profile_.push_back(rt.profile);
      pool_demand_multiplier_.push_back(rt.demand_multiplier);
      pool_burst_multiplier_.push_back(rt.burst_multiplier);
      pool_burst_start_hour_.push_back(rt.burst_start_hour);
      pool_burst_hours_.push_back(rt.burst_hours);
      pool_hourly_spike_pct_.push_back(rt.hourly_spike_extra_pct);
      pool_tz_offset_.push_back(rt.tz_offset_hours);
      pool_serving_.push_back(rt.serving);
      pool_maintenance_.push_back(std::move(rt.maintenance));
      server_generation_.insert(server_generation_.end(),
                                rt.server_generation.begin(),
                                rt.server_generation.end());
      server_begin_.push_back(server_generation_.size());
      models_.insert(models_.end(),
                     std::make_move_iterator(rt.models.begin()),
                     std::make_move_iterator(rt.models.end()));
      model_begin_.push_back(models_.size());
    }
    shard_begin_.push_back(pool_dc_.size());
  }
  // Staging order is (dc, pool) order, so the physical-index permutation
  // of it is exactly the topology walk.
  topology_order_.assign(physical_of.begin(), physical_of.end());

  was_online_.assign(total_servers(), 1);
  if (config_.per_server_accounting) {
    cpu_digests_.resize(total_servers());
  }
  if (config_.quiescent_dead_band > 0.0) {
    pool_cache_.resize(n);
  }

  shard_telemetry_.resize(lanes);
  // Size each shard's window buffers once, up front: the per-window entry
  // count is fixed by the topology (11 pool-scope series per pool, one
  // availability event per rotation member), so the stepping hot path never
  // grows them.
  for (std::size_t s = 0; s < lanes; ++s) {
    std::size_t metric_entries = 0;
    std::size_t availability_entries = 0;
    for (std::size_t p = shard_begin_[s]; p < shard_begin_[s + 1]; ++p) {
      const std::size_t servers = server_begin_[p + 1] - server_begin_[p];
      if (config_.record_pool_series) metric_entries += 11;
      if (config_.per_server_accounting) availability_entries += servers;
    }
    shard_telemetry_[s].metrics.reserve(metric_entries);
    shard_telemetry_[s].availability.reserve(availability_entries);
  }
  if (lanes > 1) {
    workers_ = std::make_unique<WorkerPool>(lanes);
  }
}

std::vector<double> FleetSimulator::regional_demands(SimTime t) const {
  const std::size_t n = config_.datacenters.size();
  std::vector<double> demand(n, 0.0);
  std::vector<std::uint8_t> down(n, 0);
  for (std::size_t d = 0; d < n; ++d) {
    down[d] = config_.events.datacenter_down(t, static_cast<std::uint32_t>(d))
                  ? 1u
                  : 0u;
    demand[d] = regional_traffic_[d].demand(t) *
                config_.events.traffic_multiplier(t, static_cast<std::uint32_t>(d));
  }
  // Outage failover: a down DC's demand redistributes to survivors per the
  // configured policy (sim/failover.h), over its precomputed share matrix.
  failover_->redistribute(down, demand);
  return demand;
}

double FleetSimulator::datacenter_demand(SimTime t, std::uint32_t dc) const {
  const std::vector<double> demand = regional_demands(t);
  if (dc >= demand.size()) {
    throw std::out_of_range("FleetSimulator::datacenter_demand");
  }
  return demand[dc];
}

std::size_t FleetSimulator::find_pool(std::uint32_t dc, std::uint32_t pool,
                                      const char* caller) const {
  for (std::size_t p = 0; p < pool_dc_.size(); ++p) {
    if (pool_dc_[p] == dc && pool_id_[p] == pool) return p;
  }
  throw std::out_of_range(std::string(caller) + ": no such pool");
}

void FleetSimulator::set_serving_count(std::uint32_t dc, std::uint32_t pool,
                                       std::size_t servers) {
  const std::size_t p =
      find_pool(dc, pool, "FleetSimulator::set_serving_count");
  const std::size_t pool_servers = server_begin_[p + 1] - server_begin_[p];
  if (servers == 0 || servers > pool_servers) {
    throw std::invalid_argument(
        "FleetSimulator::set_serving_count: count out of range");
  }
  pool_serving_[p] = servers;
  // The cached window was evaluated at the old serving count.
  if (!pool_cache_.empty()) pool_cache_[p].valid = false;
}

std::size_t FleetSimulator::serving_count(std::uint32_t dc,
                                          std::uint32_t pool) const {
  return pool_serving_[find_pool(dc, pool, "FleetSimulator::serving_count")];
}

std::size_t FleetSimulator::pool_size(std::uint32_t dc,
                                      std::uint32_t pool) const {
  const std::size_t p = find_pool(dc, pool, "FleetSimulator::pool_size");
  return server_begin_[p + 1] - server_begin_[p];
}

void FleetSimulator::flush_digests(std::int64_t day) {
  if (cpu_digests_.empty()) return;  // per-server accounting off
  for (const std::size_t p : topology_order_) {
    const std::size_t begin = server_begin_[p];
    const std::size_t end = server_begin_[p + 1];
    for (std::size_t i = begin; i < end; ++i) {
      telemetry::PercentileDigest& digest = cpu_digests_[i];
      if (digest.count() == 0) continue;
      server_days_.push_back({pool_dc_[p], pool_id_[p],
                              static_cast<std::uint32_t>(i - begin), day,
                              digest.snapshot()});
      digest.reset();
    }
  }
}

void FleetSimulator::finish_day() { flush_digests(current_day_); }

void FleetSimulator::run_until(SimTime end) {
  if (end > now_) {
    // One-shot capacity hint: every pool-scope series gains one sample per
    // window, so reserving the remaining window count up front
    // removes all realloc churn (and span invalidation) from the run.
    const auto windows = static_cast<std::size_t>(
        (end - now_ + config_.window_seconds - 1) / config_.window_seconds);
    store_.reserve_additional(windows);
  }
  while (now_ < end) {
    const auto day = static_cast<std::int64_t>(
        static_cast<double>(now_) / kSecondsPerDay);
    if (day != current_day_) {
      flush_digests(current_day_);
      current_day_ = day;
    }
    step(now_);
    now_ += config_.window_seconds;
  }
}

void FleetSimulator::step(SimTime t) {
  const std::vector<double> demand = regional_demands(t);
  const auto window_index = static_cast<std::uint64_t>(t / config_.window_seconds);

  const auto run_shard = [&](std::size_t shard) {
    ShardTelemetry& out = shard_telemetry_[shard];
    for (std::size_t p = shard_begin_[shard]; p < shard_begin_[shard + 1];
         ++p) {
      step_pool(p, t, demand, window_index, out);
    }
  };
  const std::size_t lanes = thread_count();
  if (workers_) {
    workers_->run(lanes, run_shard);
  } else {
    for (std::size_t s = 0; s < lanes; ++s) run_shard(s);
  }

  // Window barrier: replay every shard's buffers in fixed shard order.
  // Series appends are single-writer per key and the ledger/histogram
  // updates are commutative sums, so the merged state is bit-identical to
  // the serial walk regardless of the thread count.
  for (ShardTelemetry& shard : shard_telemetry_) {
    store_.merge(shard.metrics);
    ledger_.record_all(shard.availability);
    cpu_histogram_.merge(shard.cpu_histogram);
    shard.clear();
  }
}

double FleetSimulator::pool_workload(std::size_t p, SimTime t,
                                     std::span<const double> demand) const {
  double pool_rps = demand[pool_dc_[p]] * pool_profile_[p]->request_fan *
                    pool_demand_multiplier_[p];
  if (pool_burst_hours_[p] > 0.0 && pool_burst_multiplier_[p] != 1.0) {
    const double local_hour = std::fmod(
        std::fmod(static_cast<double>(t) / 3600.0 + pool_tz_offset_[p],
                  24.0) + 24.0, 24.0);
    double delta = local_hour - pool_burst_start_hour_[p];
    if (delta < 0.0) delta += 24.0;
    if (delta < pool_burst_hours_[p]) pool_rps *= pool_burst_multiplier_[p];
  }
  return pool_rps;
}

bool FleetSimulator::replay_quiescent(std::size_t p, SimTime t,
                                      double pool_rps, ShardTelemetry& out) {
  PoolCache& cache = pool_cache_[p];
  if (!cache.valid || cache.held >= kMaxHeldWindows) return false;
  if (pool_serving_[p] != cache.serving) return false;
  // Hourly-spike windows carry their own CPU signal; evaluate them fully.
  if (pool_hourly_spike_pct_[p] > 0.0 && t % 3600 < config_.window_seconds) {
    return false;
  }
  const double base = std::max(std::fabs(cache.pool_rps), 1e-9);
  if (std::fabs(pool_rps - cache.pool_rps) >
      config_.quiescent_dead_band * base) {
    return false;
  }

  ++cache.held;
  const SimTime dt = config_.window_seconds;
  if (config_.per_server_accounting) {
    for (std::uint32_t s = 0; s < cache.serving; ++s) {
      out.availability.push_back({{pool_dc_[p], pool_id_[p], s}, t, dt,
                                  cache.online_flags[s] != 0});
    }
  }
  if (cache.dark) return true;

  if (config_.per_server_accounting) {
    const std::size_t arena = server_begin_[p];
    for (std::uint32_t s = 0; s < cache.serving; ++s) {
      if (cache.online_flags[s] != 0) {
        cpu_digests_[arena + s].add(cache.cpu_totals[s]);
      }
    }
  }
  out.cpu_histogram.merge(cache.cpu_histogram);

  if (config_.record_pool_series) {
    const auto pool_key = [&](MetricKind kind) {
      return SeriesKey{pool_dc_[p], pool_id_[p], SeriesKey::kPoolScope, kind};
    };
    static constexpr MetricKind kPoolKinds[11] = {
        MetricKind::kRequestsPerSecond,     MetricKind::kCpuPercentAttributed,
        MetricKind::kCpuPercentTotal,       MetricKind::kLatencyP95Ms,
        MetricKind::kNetworkBytesPerSecond, MetricKind::kNetworkPacketsPerSecond,
        MetricKind::kMemoryPagesPerSecond,  MetricKind::kDiskReadBytesPerSecond,
        MetricKind::kDiskQueueLength,       MetricKind::kErrorsPerSecond,
        MetricKind::kActiveServers};
    for (std::size_t k = 0; k < 11; ++k) {
      out.metrics.record(pool_key(kPoolKinds[k]), t, cache.recorded[k]);
    }
  }
  return true;
}

void FleetSimulator::step_pool(std::size_t p, SimTime t,
                               std::span<const double> demand,
                               std::uint64_t window_index,
                               ShardTelemetry& out) {
  const SimTime dt = config_.window_seconds;
  const std::size_t arena = server_begin_[p];
  const std::size_t pool_servers = server_begin_[p + 1] - arena;
  const std::size_t serving = pool_serving_[p];
  const double pool_rps = pool_workload(p, t, demand);

  // Quiescent fast path: pools whose inputs barely moved replay their last
  // full evaluation. Pools with scheduled incidents never use it — the
  // availability cliff is the scenario's signal.
  PoolCache* cache = pool_cache_.empty() ? nullptr : &pool_cache_[p];
  if (cache != nullptr) {
    if (pool_maintenance_[p].has_incidents()) {
      cache = nullptr;
    } else if (replay_quiescent(p, t, pool_rps, out)) {
      return;
    } else if (pool_hourly_spike_pct_[p] > 0.0 &&
               t % 3600 < config_.window_seconds) {
      // Spike windows evaluate fully (replay_quiescent refuses them) but
      // must not populate the cache either: their spike-elevated CPU would
      // replay into the quiescent windows that follow, turning a
      // one-window-per-hour spike into a near-constant offset. The
      // pre-spike cache stays valid for those windows instead.
      cache = nullptr;
    }
  }

  // Which servers are online this window? Only the first `serving`
  // servers are in the rotation at all (reduction experiments remove the
  // tail); maintenance takes rotation members out temporarily.
  std::size_t online = 0;
  std::vector<std::uint8_t>& is_online = out.online_scratch;
  is_online.assign(serving, 0);
  const MaintenanceSchedule& maintenance = pool_maintenance_[p];
  for (std::uint32_t s = 0; s < serving; ++s) {
    const bool off = maintenance.offline(s, pool_servers, t);
    is_online[s] = off ? 0u : 1u;
    online += off ? 0u : 1u;
  }

  // Availability accounting covers the whole configured pool; removed
  // servers (index >= serving) are deliberately NOT unavailable — they
  // left the pool, they are not broken.
  if (config_.per_server_accounting) {
    for (std::uint32_t s = 0; s < serving; ++s) {
      out.availability.push_back(
          {{pool_dc_[p], pool_id_[p], s}, t, dt, is_online[s] != 0});
    }
  }

  if (cache != nullptr) {
    cache->valid = true;
    cache->dark = online == 0;
    cache->held = 0;
    cache->pool_rps = pool_rps;
    cache->serving = serving;
    cache->online = online;
    cache->cpu_histogram.reset();
    cache->online_flags.assign(is_online.begin(), is_online.end());
    if (config_.per_server_accounting) {
      cache->cpu_totals.assign(serving, 0.0);
    }
  }

  if (online == 0) return;  // pool dark this window
  const double per_server_rps = pool_rps / static_cast<double>(online);

  stats::RunningStats agg_rps;
  stats::RunningStats agg_cpu_attr;
  stats::RunningStats agg_cpu_total;
  stats::RunningStats agg_latency;
  stats::RunningStats agg_net_bytes;
  stats::RunningStats agg_net_pkts;
  stats::RunningStats agg_mem_pages;
  stats::RunningStats agg_disk_bytes;
  stats::RunningStats agg_disk_q;
  stats::RunningStats agg_errors;

  const std::uint64_t pool_stream =
      mix_seed(config_.seed, pool_dc_[p], pool_id_[p], window_index);
  // Pool-common measurement noise: request-mix drift, deploy churn and
  // collection jitter move the whole pool's counters together window to
  // window, which is what keeps pool-average fits from being noiselessly
  // perfect (the paper's Fig. 8 R² is 0.984, not 1.0).
  SplitMix64 common_rng(mix_seed(pool_stream, 0xC0117));
  std::normal_distribution<double> common_gauss(0.0, 1.0);
  const double cpu_common = 1.0 + 0.02 * common_gauss(common_rng);
  const double latency_common = 1.0 + 0.01 * common_gauss(common_rng);
  // Response payload sizes drift with the request mix far more than CPU
  // cost does — Fig. 2 shows network counters linear but visibly noisier.
  const double network_common = 1.0 + 0.06 * common_gauss(common_rng);
  const ResponseModel* const pool_models = models_.data() + model_begin_[p];
  const std::uint8_t* const generation = server_generation_.data() + arena;
  for (std::uint32_t s = 0; s < serving; ++s) {
    const bool restarted = is_online[s] != 0 && was_online_[arena + s] == 0;
    was_online_[arena + s] = is_online[s];
    if (is_online[s] == 0) continue;

    SplitMix64 rng(mix_seed(pool_stream, s));
    // Load-balancer imbalance: a few percent of jitter per server.
    std::normal_distribution<double> gauss(0.0, 1.0);
    const double rps = std::max(
        0.0, per_server_rps * (1.0 + 0.02 * gauss(rng)));

    const ResponseModel& model = pool_models[generation[s]];
    ServerWindowMetrics m =
        model.sample(rps, t, rng, /*with_background_spikes=*/true,
                     config_.background_noise_scale);
    m.cpu_pct_attributed *= cpu_common;
    m.cpu_pct_total = std::min(100.0, m.cpu_pct_total * cpu_common);
    if (pool_hourly_spike_pct_[p] > 0.0 &&
        t % 3600 < config_.window_seconds) {
      m.cpu_pct_total =
          std::min(100.0, m.cpu_pct_total + pool_hourly_spike_pct_[p]);
    }
    m.latency_p95_ms *= latency_common;
    m.network_bytes_per_s *= network_common;
    m.network_packets_per_s *= network_common;
    if (restarted) {
      // Post-restart penalty: cache priming and JIT warm-up (the paper's
      // "elevated latency ... caused by additional work performed when
      // the software starts").
      m.latency_p95_ms += pool_profile_[p]->cold_latency_ms;
      m.cpu_pct_total = std::min(100.0, m.cpu_pct_total + 5.0);
    }
    if (!config_.attribution_enabled) {
      // Blind measurement mode: the per-workload series is polluted with
      // everything running on the box.
      m.cpu_pct_attributed = m.cpu_pct_total;
    }

    if (config_.per_server_accounting) {
      cpu_digests_[arena + s].add(m.cpu_pct_total);
      if (cache != nullptr) cache->cpu_totals[s] = m.cpu_pct_total;
    }
    if (cache != nullptr) {
      cache->cpu_histogram.add(m.cpu_pct_total);
    } else {
      out.cpu_histogram.add(m.cpu_pct_total);
    }

    agg_rps.add(m.rps);
    agg_cpu_attr.add(m.cpu_pct_attributed);
    agg_cpu_total.add(m.cpu_pct_total);
    agg_latency.add(m.latency_p95_ms);
    agg_net_bytes.add(m.network_bytes_per_s);
    agg_net_pkts.add(m.network_packets_per_s);
    agg_mem_pages.add(m.memory_pages_per_s);
    agg_disk_bytes.add(m.disk_read_bytes_per_s);
    agg_disk_q.add(m.disk_queue_length);
    agg_errors.add(m.errors_per_s);
  }

  // A cached evaluation keeps its own histogram contribution (for replay)
  // and folds it into the shard's — bucket counts add, so the merged
  // result is identical to direct adds.
  if (cache != nullptr) out.cpu_histogram.merge(cache->cpu_histogram);

  if (config_.record_pool_series && agg_rps.count() > 0) {
    const double recorded[11] = {
        agg_rps.mean(),        agg_cpu_attr.mean(),  agg_cpu_total.mean(),
        agg_latency.mean(),    agg_net_bytes.mean(), agg_net_pkts.mean(),
        agg_mem_pages.mean(),  agg_disk_bytes.mean(), agg_disk_q.mean(),
        agg_errors.mean(),     static_cast<double>(online)};
    auto pool_key = [&](MetricKind kind) {
      return SeriesKey{pool_dc_[p], pool_id_[p], SeriesKey::kPoolScope, kind};
    };
    out.metrics.record(pool_key(MetricKind::kRequestsPerSecond), t,
                       recorded[0]);
    out.metrics.record(pool_key(MetricKind::kCpuPercentAttributed), t,
                       recorded[1]);
    out.metrics.record(pool_key(MetricKind::kCpuPercentTotal), t,
                       recorded[2]);
    out.metrics.record(pool_key(MetricKind::kLatencyP95Ms), t, recorded[3]);
    out.metrics.record(pool_key(MetricKind::kNetworkBytesPerSecond), t,
                       recorded[4]);
    out.metrics.record(pool_key(MetricKind::kNetworkPacketsPerSecond), t,
                       recorded[5]);
    out.metrics.record(pool_key(MetricKind::kMemoryPagesPerSecond), t,
                       recorded[6]);
    out.metrics.record(pool_key(MetricKind::kDiskReadBytesPerSecond), t,
                       recorded[7]);
    out.metrics.record(pool_key(MetricKind::kDiskQueueLength), t,
                       recorded[8]);
    out.metrics.record(pool_key(MetricKind::kErrorsPerSecond), t,
                       recorded[9]);
    out.metrics.record(pool_key(MetricKind::kActiveServers), t, recorded[10]);
    if (cache != nullptr) {
      std::copy(std::begin(recorded), std::end(recorded),
                cache->recorded.begin());
    }
  }
}

}  // namespace headroom::sim
