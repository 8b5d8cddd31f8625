#include "core/degradation.h"

#include <cmath>

namespace headroom::core {

namespace {

constexpr telemetry::SimTime kSeasonSeconds = 86400;  ///< Diurnal period.

/// Reads the exact sample at `t` from a series into *out, if present.
void value_at_time(const telemetry::TimeSeries& series, telemetry::SimTime t,
                   double* out) {
  const std::size_t i = series.first_index_at_or_after(t);
  if (i < series.size() && series.time_at(i) == t) *out = series.value_at(i);
}

[[nodiscard]] std::string_view transition_reason(HealthMode to) noexcept {
  switch (to) {
    case HealthMode::kNominal: return "recovered";
    case HealthMode::kHealing: return "telemetry gap";
    case HealthMode::kStale: return "gap exceeded heal budget";
    case HealthMode::kFailsafe: return "staleness budget exhausted";
  }
  return "?";
}

}  // namespace

std::string_view to_string(HealthMode mode) noexcept {
  switch (mode) {
    case HealthMode::kNominal: return "nominal";
    case HealthMode::kHealing: return "healing";
    case HealthMode::kStale: return "stale";
    case HealthMode::kFailsafe: return "failsafe";
  }
  return "?";
}

HealthMonitor::HealthMonitor(telemetry::MetricStore* delivered,
                             DegradationOptions options)
    : store_(delivered), options_(options) {}

void HealthMonitor::add_pool(std::uint32_t datacenter, std::uint32_t pool) {
  tracker(datacenter, pool);
}

DegradationTracker& HealthMonitor::tracker(std::uint32_t datacenter,
                                           std::uint32_t pool) {
  for (DegradationTracker& t : pools_) {
    if (t.datacenter_ == datacenter && t.pool_ == pool) return t;
  }
  pools_.emplace_back(datacenter, pool);
  return pools_.back();
}

const DegradationTracker* HealthMonitor::find(std::uint32_t datacenter,
                                              std::uint32_t pool) const {
  for (const DegradationTracker& t : pools_) {
    if (t.datacenter_ == datacenter && t.pool_ == pool) return &t;
  }
  return nullptr;
}

HealthMode HealthMonitor::mode(std::uint32_t datacenter,
                               std::uint32_t pool) const {
  const DegradationTracker* t = find(datacenter, pool);
  return t != nullptr ? t->mode() : HealthMode::kNominal;
}

void HealthMonitor::set_mode(DegradationTracker& t, telemetry::SimTime at,
                             HealthMode to, const std::string& reason) {
  if (t.mode_ == to) return;
  transitions_.push_back({t.datacenter_, t.pool_, at, t.mode_, to, reason});
  t.mode_ = to;
}

void HealthMonitor::ingest(const telemetry::SeriesKey& key, telemetry::SimTime t,
                           double value) {
  DegradationTracker& pool = tracker(key.datacenter, key.pool);
  const telemetry::SimTime window = options_.window_seconds;
  const bool is_workload =
      key.metric == telemetry::MetricKind::kRequestsPerSecond;

  if (!std::isfinite(value)) {
    ++pool.counters_.quarantined_nan;
    return;
  }
  // Every pool-scope metric in this system is non-negative; a negative
  // value is feed corruption, not telemetry.
  if (value < 0.0) {
    ++pool.counters_.quarantined_implausible;
    return;
  }
  // Off-grid timestamps (clock skew) snap down to their window; the grid
  // is the contract every consumer aligns on.
  if (t % window != 0) {
    t = t >= 0 ? t / window * window : (t - window + 1) / window * window;
    ++pool.counters_.realigned;
  }
  const auto [last, first_sample] =
      last_.try_emplace(key, LastSample{t, value});
  if (!first_sample) {
    if (t == last->second.time) {
      ++pool.counters_.quarantined_duplicate;
      return;
    }
    if (t < last->second.time) {
      ++pool.counters_.quarantined_out_of_order;
      return;
    }
    // Heal the hole between the last delivered window and this one: the
    // value one season back if the store still holds it, else last value.
    // Lazy by design — a still-open gap writes nothing, so a stalled
    // writer that later catches up with real data leaves the store
    // bit-identical to the fault-free run.
    const telemetry::TimeSeries& series = store_->series(key);
    for (telemetry::SimTime g = last->second.time + window; g < t;
         g += window) {
      double fill = last->second.value;
      value_at_time(series, g - kSeasonSeconds, &fill);
      store_->record(key, g, fill);
      ++pool.counters_.healed;
      if (is_workload) pool.healed_windows_.insert(g);
    }
  }
  if (is_workload && t + window <= now_) ++pool.counters_.late_windows;
  store_->record(key, t, value);
  last->second = {t, value};
  if (t > pool.last_real_) pool.last_real_ = t;
}

void HealthMonitor::advance(telemetry::SimTime now) {
  now_ = now;
  const telemetry::SimTime window = options_.window_seconds;
  for (DegradationTracker& pool : pools_) {
    if (pool.last_real_ < 0) continue;  // No data yet; watchdog's problem.
    const telemetry::SimTime gap = now - (pool.last_real_ + window);
    HealthMode target = HealthMode::kNominal;
    if (gap > options_.staleness_budget_seconds) {
      target = HealthMode::kFailsafe;
    } else if (gap > options_.heal_budget_seconds) {
      target = HealthMode::kStale;
    } else if (gap > 0) {
      target = HealthMode::kHealing;
    }
    if (target == HealthMode::kStale || target == HealthMode::kFailsafe) {
      ++pool.counters_.stale_windows;
    }
    set_mode(pool, now, target, std::string(transition_reason(target)));
  }
}

void HealthMonitor::force_degrade(telemetry::SimTime now, HealthMode floor,
                                  const std::string& reason) {
  for (DegradationTracker& pool : pools_) {
    if (static_cast<std::uint8_t>(pool.mode_) <
        static_cast<std::uint8_t>(floor)) {
      set_mode(pool, now, floor, reason);
    }
  }
}

void HealthMonitor::note_malformed_row(std::uint32_t datacenter,
                                       std::uint32_t pool) {
  ++tracker(datacenter, pool).counters_.malformed_rows;
}

void HealthMonitor::note_io_retry(std::uint32_t datacenter,
                                  std::uint32_t pool) {
  ++tracker(datacenter, pool).counters_.io_retries;
}

bool HealthMonitor::any_degraded() const noexcept {
  for (const DegradationTracker& pool : pools_) {
    if (pool.mode_ != HealthMode::kNominal) return true;
    // Everything except late_windows is damage. Late rows happen on a
    // healthy tailed feed whenever one pool's CSV flushes a poll behind
    // another's — the data itself is complete and correct.
    const PoolHealthCounters& c = pool.counters_;
    if (c.healed + c.quarantined_total() + c.realigned + c.malformed_rows +
            c.io_retries + c.stale_windows >
        0) {
      return true;
    }
  }
  // A transient NOMINAL -> HEALING -> NOMINAL excursion that healed
  // nothing (a tailed pool CSV lagging one poll behind the others) is
  // jitter, not degradation; reaching STALE is not.
  for (const HealthTransition& tr : transitions_) {
    if (static_cast<std::uint8_t>(tr.to) >=
        static_cast<std::uint8_t>(HealthMode::kStale)) {
      return true;
    }
  }
  return false;
}

std::string HealthMonitor::format_report() const {
  HealthMode overall = HealthMode::kNominal;
  for (const DegradationTracker& pool : pools_) {
    if (static_cast<std::uint8_t>(pool.mode_) >
        static_cast<std::uint8_t>(overall)) {
      overall = pool.mode_;
    }
  }
  std::string out;
  out += "health overall = " + std::string(to_string(overall)) + "\n";
  out += "health degraded = " + std::string(any_degraded() ? "1" : "0") + "\n";
  out += "health pools = " + std::to_string(pools_.size()) + "\n";
  for (const DegradationTracker& pool : pools_) {
    const PoolHealthCounters& c = pool.counters_;
    out += "health pool " + std::to_string(pool.datacenter_) + " " +
           std::to_string(pool.pool_) + " : mode=" +
           std::string(to_string(pool.mode_)) +
           " healed=" + std::to_string(c.healed) +
           " quarantined_nan=" + std::to_string(c.quarantined_nan) +
           " quarantined_implausible=" +
           std::to_string(c.quarantined_implausible) +
           " quarantined_duplicate=" + std::to_string(c.quarantined_duplicate) +
           " quarantined_out_of_order=" +
           std::to_string(c.quarantined_out_of_order) +
           " realigned=" + std::to_string(c.realigned) +
           " late_windows=" + std::to_string(c.late_windows) +
           " malformed_rows=" + std::to_string(c.malformed_rows) +
           " io_retries=" + std::to_string(c.io_retries) +
           " stale_windows=" + std::to_string(c.stale_windows) + "\n";
  }
  out += "health transitions = " + std::to_string(transitions_.size()) + "\n";
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    const HealthTransition& tr = transitions_[i];
    out += "health transition " + std::to_string(i + 1) + " : t=" +
           std::to_string(tr.at) + " pool " + std::to_string(tr.datacenter) +
           " " + std::to_string(tr.pool) + " " +
           std::string(to_string(tr.from)) + " -> " +
           std::string(to_string(tr.to)) + " (" + tr.reason + ")\n";
  }
  return out;
}

}  // namespace headroom::core
