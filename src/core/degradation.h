// Graceful degradation under damaged telemetry: per-pool health state
// machine, gap healing on the window grid, and quarantine accounting.
//
// The paper's premise is that headroom exists to absorb failures — so the
// planner itself must survive the failures telemetry pipelines actually
// produce (gaps, NaNs, duplicated/reordered windows, stalled feeds, clock
// skew) instead of crashing or silently planning on garbage. The
// HealthMonitor sits on the delivery path between a feed (simulated or
// tailed) and the *delivered* metric store the pipeline reads:
//
//   NOMINAL  --gap opens-->  HEALING  --heal budget exceeded-->  STALE
//      ^                                                           |
//      +------- real data resumes (gap backfilled) ----------------+
//   STALE  --staleness budget exhausted-->  FAILSAFE  (plan = full pool,
//                                            pending RSM experiment
//                                            aborted; never shrink on
//                                            stale data)
//
// Healing is lazy: nothing is invented while a gap is open. When real
// data resumes, every missing grid window is backfilled — the value one
// season (day) earlier when the delivered store still holds it, else the
// last delivered value — and flagged, so the rolling planner can discount
// healed windows rather than fit on them. Samples that are non-finite,
// implausible, duplicated, or time-reversed are quarantined (skipped and
// counted), never stored. All decisions run on the window grid, so the
// whole layer is deterministic and thread-count invariant.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "telemetry/metric_store.h"
#include "telemetry/metrics.h"

namespace headroom::core {

enum class HealthMode : std::uint8_t {
  kNominal = 0,   ///< Fresh data, plans fully trusted.
  kHealing = 1,   ///< Gap open but within the heal budget.
  kStale = 2,     ///< Gap beyond the heal budget; hold last-known-good plan.
  kFailsafe = 3,  ///< Staleness budget exhausted; worst-case headroom.
};

[[nodiscard]] std::string_view to_string(HealthMode mode) noexcept;

struct DegradationOptions {
  telemetry::SimTime window_seconds = 120;
  /// Gaps up to this long heal transparently (plans identical to the
  /// fault-free run once backfilled). Default: 15 minutes.
  telemetry::SimTime heal_budget_seconds = 900;
  /// Beyond this with no real data, the pool enters FAILSAFE. Default: 4h.
  telemetry::SimTime staleness_budget_seconds = 14400;
};

/// Per-pool quarantine/healing tallies. healed/quarantined_*/realigned
/// count samples; late_windows/stale_windows count grid windows;
/// malformed_rows/io_retries count follow-mode tailer incidents.
struct PoolHealthCounters {
  std::size_t healed = 0;
  std::size_t quarantined_nan = 0;
  std::size_t quarantined_implausible = 0;
  std::size_t quarantined_duplicate = 0;
  std::size_t quarantined_out_of_order = 0;
  std::size_t realigned = 0;
  std::size_t late_windows = 0;
  std::size_t malformed_rows = 0;
  std::size_t io_retries = 0;
  std::size_t stale_windows = 0;

  [[nodiscard]] std::size_t quarantined_total() const noexcept {
    return quarantined_nan + quarantined_implausible + quarantined_duplicate +
           quarantined_out_of_order;
  }
  [[nodiscard]] bool any() const noexcept {
    return healed + quarantined_total() + realigned + late_windows +
               malformed_rows + io_retries + stale_windows >
           0;
  }
};

/// One mode change, stamped with the grid time it was decided at.
struct HealthTransition {
  std::uint32_t datacenter = 0;
  std::uint32_t pool = 0;
  telemetry::SimTime at = 0;
  HealthMode from = HealthMode::kNominal;
  HealthMode to = HealthMode::kNominal;
  std::string reason;
};

/// The per-pool state machine. Owned and driven by HealthMonitor; exposed
/// read-only so the serve layer can report modes and discount healed
/// windows.
class DegradationTracker {
 public:
  DegradationTracker(std::uint32_t datacenter, std::uint32_t pool)
      : datacenter_(datacenter), pool_(pool) {}

  [[nodiscard]] std::uint32_t datacenter() const noexcept {
    return datacenter_;
  }
  [[nodiscard]] std::uint32_t pool() const noexcept { return pool_; }
  [[nodiscard]] HealthMode mode() const noexcept { return mode_; }
  [[nodiscard]] const PoolHealthCounters& counters() const noexcept {
    return counters_;
  }
  /// Newest accepted real (non-healed) sample time; -1 before any data.
  [[nodiscard]] telemetry::SimTime last_real_time() const noexcept {
    return last_real_;
  }
  /// True when window `t`'s workload sample was synthesized by healing.
  [[nodiscard]] bool window_healed(telemetry::SimTime t) const {
    return healed_windows_.count(t) > 0;
  }

 private:
  friend class HealthMonitor;

  std::uint32_t datacenter_ = 0;
  std::uint32_t pool_ = 0;
  HealthMode mode_ = HealthMode::kNominal;
  PoolHealthCounters counters_;
  telemetry::SimTime last_real_ = -1;
  std::set<telemetry::SimTime> healed_windows_;
};

/// Sanitizes a delivered sample stream into a metric store, heals gaps on
/// resume, and drives every pool's DegradationTracker off the window grid.
class HealthMonitor {
 public:
  HealthMonitor(telemetry::MetricStore* delivered, DegradationOptions options);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Registers a pool up front (serve does, in (dc, pool) order, so the
  /// report's pool order is deterministic). Unregistered pools are added
  /// on first ingest.
  void add_pool(std::uint32_t datacenter, std::uint32_t pool);

  /// Routes one delivered sample through sanitation. Accepted samples are
  /// written to the store; a resumed series first has every missing grid
  /// window backfilled (seasonal value a day earlier when available, else
  /// last value) and flagged healed. Quarantined samples are counted and
  /// dropped.
  void ingest(const telemetry::SeriesKey& key, telemetry::SimTime t,
              double value);

  /// Advances the grid clock to `now` (exclusive end of the window that
  /// just elapsed) and re-evaluates every pool's mode from its gap.
  void advance(telemetry::SimTime now);

  /// Watchdog escalation (follow mode): degrade every pool to at least
  /// `floor` — a stalled tailer cannot wait for grid evidence. Pools
  /// already at or past `floor` are untouched.
  void force_degrade(telemetry::SimTime now, HealthMode floor,
                     const std::string& reason);

  /// Tailer incident counters (follow mode).
  void note_malformed_row(std::uint32_t datacenter, std::uint32_t pool);
  void note_io_retry(std::uint32_t datacenter, std::uint32_t pool);

  [[nodiscard]] const DegradationTracker* find(std::uint32_t datacenter,
                                               std::uint32_t pool) const;
  [[nodiscard]] HealthMode mode(std::uint32_t datacenter,
                                std::uint32_t pool) const;
  [[nodiscard]] const std::vector<DegradationTracker>& pools() const noexcept {
    return pools_;
  }
  [[nodiscard]] const std::vector<HealthTransition>& transitions()
      const noexcept {
    return transitions_;
  }
  /// True when anything actually went wrong: a pool is currently not
  /// NOMINAL, any damage counter is non-zero, or any transition ever
  /// reached STALE or beyond. Feed jitter a healthy tailed feed produces
  /// — a transient HEALING excursion that healed nothing, or late rows
  /// from one CSV flushing a poll behind the others — does not count.
  [[nodiscard]] bool any_degraded() const noexcept;

  /// The machine-readable health report (golden-pinned byte-for-byte for
  /// simulated fault runs): overall mode, per-pool counters, and the full
  /// transition log.
  [[nodiscard]] std::string format_report() const;

 private:
  DegradationTracker& tracker(std::uint32_t datacenter, std::uint32_t pool);
  void set_mode(DegradationTracker& t, telemetry::SimTime at, HealthMode to,
                const std::string& reason);

  telemetry::MetricStore* store_;
  DegradationOptions options_;
  std::vector<DegradationTracker> pools_;
  std::vector<HealthTransition> transitions_;
  telemetry::SimTime now_ = 0;
  /// The last accepted sample of each series: its grid time (duplicate and
  /// out-of-order checks) and value (gap-healing fallback).
  struct LastSample {
    telemetry::SimTime time;
    double value;
  };
  std::unordered_map<telemetry::SeriesKey, LastSample, telemetry::SeriesKeyHash>
      last_;
};

}  // namespace headroom::core
