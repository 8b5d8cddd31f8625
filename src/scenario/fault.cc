#include "scenario/fault.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "scenario/trace.h"
#include "telemetry/csv.h"

namespace headroom::scenario {

namespace {

using telemetry::SimTime;

[[nodiscard]] SimTime hours_to_seconds(double hours) {
  return static_cast<SimTime>(std::llround(hours * 3600.0));
}

/// splitmix64: the deterministic per-(fault, window) coin. Statelessness
/// is what makes injection order-free and thread-count invariant.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

[[nodiscard]] std::uint64_t fault_coin(std::uint64_t seed, std::size_t fault,
                                       SimTime window_index) noexcept {
  return mix(mix(seed ^ (0xFA17ull + fault)) ^
             static_cast<std::uint64_t>(window_index));
}

/// The value corrupt_row plants: finite but violently implausible, so the
/// sanitizer's bounds check (not NaN handling) has to catch it.
constexpr double kCorruptValue = -1.0e6;

}  // namespace

FaultInjector::FaultInjector(const ScenarioSpec& spec)
    : seed_(spec.seed), window_(spec.window_seconds) {
  ranges_.reserve(spec.faults.size());
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSpec& f = spec.faults[i];
    Range r;
    r.kind = f.kind;
    r.global = f.kind == FaultKind::kFeedStall;
    r.datacenter = f.datacenter.value_or(0);
    r.pool = f.pool.value_or(0);
    // Window-aligned span: begin snaps down to the grid, end snaps up, and
    // every fault covers at least one whole window.
    const SimTime raw_begin = hours_to_seconds(f.start_hour);
    const SimTime raw_end = hours_to_seconds(f.start_hour + f.duration_hours);
    r.begin = raw_begin / window_ * window_;
    r.end = (raw_end + window_ - 1) / window_ * window_;
    if (r.end <= r.begin) r.end = r.begin + window_;
    r.skew = static_cast<SimTime>(std::llround(f.skew_seconds));
    r.index = i;
    ranges_.push_back(r);
  }
}

std::vector<DeliveredSample>& FaultInjector::slot(
    std::vector<std::pair<std::uint64_t, std::vector<DeliveredSample>>>& v,
    std::uint64_t key) {
  for (auto& [k, buf] : v) {
    if (k == key) return buf;
  }
  v.emplace_back(key, std::vector<DeliveredSample>{});
  return v.back().second;
}

void FaultInjector::deliver(std::uint32_t datacenter, std::uint32_t pool,
                            SimTime t, std::vector<DeliveredSample>* samples) {
  const std::uint64_t pool_key = std::uint64_t{datacenter} * 64 + pool;

  // Value- and time-level transforms first (they shape *this* window),
  // then the reorder swap, then the stall freeze — a stalled feed buffers
  // whatever the upstream faults already did to the window.
  bool stalled = false;
  bool swap_here = false;
  for (const Range& r : ranges_) {
    if (!applies(r, datacenter, pool, t)) continue;
    switch (r.kind) {
      case FaultKind::kTelemetryGap:
        samples->clear();
        break;
      case FaultKind::kNanBurst:
        for (DeliveredSample& s : *samples) {
          s.value = std::numeric_limits<double>::quiet_NaN();
        }
        break;
      case FaultKind::kCorruptRow:
        if (!samples->empty()) {
          const std::uint64_t coin = fault_coin(seed_, r.index, t / window_);
          (*samples)[coin % samples->size()].value = kCorruptValue;
        }
        break;
      case FaultKind::kClockSkew:
        for (DeliveredSample& s : *samples) s.time += r.skew;
        break;
      case FaultKind::kDuplicateWindow: {
        const std::size_t n = samples->size();
        samples->reserve(n * 2);
        for (std::size_t i = 0; i < n; ++i) {
          samples->push_back((*samples)[i]);
        }
        break;
      }
      case FaultKind::kOutOfOrderWindow:
        swap_here = true;
        break;
      case FaultKind::kFeedStall:
        stalled = true;
        break;
    }
  }

  if (swap_here) {
    std::vector<DeliveredSample>& held = slot(swap_, pool_key);
    if (held.empty()) {
      // First window of a swap pair: hold it back...
      held = std::move(*samples);
      samples->clear();
    } else {
      // ...and release it *behind* the next one.
      samples->insert(samples->end(), held.begin(), held.end());
      held.clear();
    }
  } else {
    // Fault range ended with an odd window still held: release it in
    // front, where it lands in order (no damage observable downstream).
    std::vector<DeliveredSample>& held = slot(swap_, pool_key);
    if (!held.empty()) {
      held.insert(held.end(), samples->begin(), samples->end());
      *samples = std::move(held);
      held.clear();
    }
  }

  std::vector<DeliveredSample>& frozen = slot(held_, pool_key);
  if (stalled) {
    frozen.insert(frozen.end(), samples->begin(), samples->end());
    samples->clear();
  } else if (!frozen.empty()) {
    // Stall over: the writer catches up, delivering every frozen window
    // (real data, correct timestamps, in order) ahead of the current one.
    frozen.insert(frozen.end(), samples->begin(), samples->end());
    *samples = std::move(frozen);
    frozen.clear();
  }
}

std::size_t corrupt_trace_csvs(const std::string& dir,
                               const ScenarioSpec& spec) {
  TraceFeedInfo feed;
  const std::string problem = load_trace_feed(dir, &feed);
  if (!problem.empty()) {
    throw std::runtime_error("corrupt_trace_csvs: " + problem);
  }
  const SimTime window = spec.window_seconds;
  std::size_t changed = 0;

  for (const TracePoolFeed& pool : feed.pools) {
    // Collect this pool's applicable row-level faults.
    std::vector<FaultSpec> faults;
    for (const FaultSpec& f : spec.faults) {
      if (f.kind == FaultKind::kFeedStall) continue;
      if (f.datacenter.value_or(0) == pool.datacenter &&
          f.pool.value_or(0) == pool.pool) {
        faults.push_back(f);
      }
    }
    if (faults.empty()) continue;

    std::ifstream in(pool.path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("corrupt_trace_csvs: cannot open " + pool.path);
    }
    std::string rewritten;
    const auto emit = [&rewritten](const std::string& row) {
      rewritten += row;
      rewritten += '\n';
    };
    std::string line;
    bool header = true;
    std::string held_row;  // out_of_order swap slot.
    while (telemetry::read_csv_line(in, &line)) {
      if (header) {
        emit(line);
        header = false;
        continue;
      }
      if (line.empty()) continue;
      std::int64_t start = 0;
      const std::size_t comma = line.find(',');
      if (!telemetry::parse_int64(line.substr(0, comma), &start)) {
        emit(line);
        continue;
      }
      bool dropped = false;
      bool swap_row = false;
      for (const FaultSpec& f : faults) {
        const SimTime begin =
            hours_to_seconds(f.start_hour) / window * window;
        SimTime end = (hours_to_seconds(f.start_hour + f.duration_hours) +
                       window - 1) /
                      window * window;
        if (end <= begin) end = begin + window;
        if (start < begin || start >= end) continue;
        ++changed;
        switch (f.kind) {
          case FaultKind::kTelemetryGap:
            dropped = true;
            break;
          case FaultKind::kNanBurst: {
            std::string poisoned = line.substr(0, comma);
            for (std::size_t i = 1;
                 i < telemetry::split_csv_fields(line).size(); ++i) {
              poisoned += ",nan";
            }
            line = poisoned;
            break;
          }
          case FaultKind::kDuplicateWindow:
            emit(line);
            break;
          case FaultKind::kCorruptRow:
            line = "<<corrupt telemetry row " + std::to_string(start) + ">>";
            break;
          case FaultKind::kClockSkew:
            line = std::to_string(
                       start + static_cast<SimTime>(
                                   std::llround(f.skew_seconds))) +
                   line.substr(comma);
            break;
          case FaultKind::kOutOfOrderWindow:
            swap_row = true;
            break;
          case FaultKind::kFeedStall:
            break;
        }
        if (dropped) break;
      }
      if (dropped) continue;
      if (swap_row) {
        if (held_row.empty()) {
          held_row = line;
        } else {
          emit(line);
          emit(held_row);
          held_row.clear();
        }
        continue;
      }
      if (!held_row.empty()) {
        emit(held_row);
        held_row.clear();
      }
      emit(line);
    }
    if (!held_row.empty()) emit(held_row);
    in.close();

    const std::string problem = write_text_file(pool.path, rewritten);
    if (!problem.empty()) throw std::runtime_error(problem);
  }
  return changed;
}

}  // namespace headroom::scenario
