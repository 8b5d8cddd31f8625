#include "scenario/scenario_spec.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string_view>

#include "scenario/scenario_parser.h"
#include "telemetry/csv.h"

namespace headroom::scenario {

namespace {

/// Metric name -> the pipeline step that produces it (nullopt: always
/// available — fleet shape and demand-timeline metrics).
const std::map<std::string, std::optional<PipelineStep>, std::less<>>&
metric_registry() {
  static const std::map<std::string, std::optional<PipelineStep>, std::less<>>
      kMetrics = {
          {"datacenters", std::nullopt},
          {"total_pools", std::nullopt},
          {"total_servers", std::nullopt},
          {"serving_final", std::nullopt},
          {"max_traffic_ratio", std::nullopt},
          {"median_survivor_increase_pct", std::nullopt},
          {"max_survivor_increase_pct", std::nullopt},
          {"metric_valid", PipelineStep::kMeasure},
          {"limiting_r2", PipelineStep::kMeasure},
          {"server_groups", PipelineStep::kMeasure},
          {"multimodal", PipelineStep::kMeasure},
          {"plan_current", PipelineStep::kOptimize},
          {"plan_recommended", PipelineStep::kOptimize},
          {"plan_savings_pct", PipelineStep::kOptimize},
          {"plan_stressed_latency_ms", PipelineStep::kOptimize},
          {"rsm_start", PipelineStep::kOptimize},
          {"rsm_recommended", PipelineStep::kOptimize},
          {"rsm_reduction_pct", PipelineStep::kOptimize},
          {"rsm_iterations", PipelineStep::kOptimize},
          {"rsm_slo_limited", PipelineStep::kOptimize},
          {"rsm_failsafe", PipelineStep::kOptimize},
          {"model_equivalent", PipelineStep::kModel},
          {"model_type_distance", PipelineStep::kModel},
          {"gate_blocked", PipelineStep::kValidate},
          {"gate_max_clean_rps", PipelineStep::kValidate},
      };
  return kMetrics;
}

/// One enum's scenario-file names: the only place each is spelled.
template <typename Enum>
struct EnumName {
  Enum value;
  std::string_view name;
};

constexpr EnumName<FleetKind> kFleetKindNames[] = {
    {FleetKind::kSinglePool, "single_pool"},
    {FleetKind::kMultiDc, "multi_dc"},
    {FleetKind::kStandard, "standard"},
};

constexpr EnumName<PipelineStep> kPipelineStepNames[] = {
    {PipelineStep::kMeasure, "measure"},
    {PipelineStep::kOptimize, "optimize"},
    {PipelineStep::kModel, "model"},
    {PipelineStep::kValidate, "validate"},
};

constexpr EnumName<ScenarioEventKind> kEventKindNames[] = {
    {ScenarioEventKind::kTrafficMultiplier, "traffic_multiplier"},
    {ScenarioEventKind::kDatacenterOutage, "outage"},
    {ScenarioEventKind::kMaintenanceWave, "maintenance_wave"},
    {ScenarioEventKind::kServingReduction, "serving_reduction"},
};

constexpr EnumName<FaultKind> kFaultKindNames[] = {
    {FaultKind::kTelemetryGap, "telemetry_gap"},
    {FaultKind::kNanBurst, "nan_burst"},
    {FaultKind::kDuplicateWindow, "duplicate_window"},
    {FaultKind::kOutOfOrderWindow, "out_of_order_window"},
    {FaultKind::kCorruptRow, "corrupt_row"},
    {FaultKind::kFeedStall, "feed_stall"},
    {FaultKind::kClockSkew, "clock_skew"},
};

template <typename Enum, std::size_t N>
[[nodiscard]] std::string_view name_of(const EnumName<Enum> (&table)[N],
                                       Enum value) noexcept {
  for (const EnumName<Enum>& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "?";
}

template <typename Enum, std::size_t N>
[[nodiscard]] std::optional<Enum> value_of(const EnumName<Enum> (&table)[N],
                                           std::string_view name) noexcept {
  for (const EnumName<Enum>& entry : table) {
    if (entry.name == name) return entry.value;
  }
  return std::nullopt;
}

}  // namespace

std::string_view to_string(FleetKind kind) noexcept {
  return name_of(kFleetKindNames, kind);
}

std::optional<FleetKind> fleet_kind_from_string(std::string_view name) noexcept {
  return value_of(kFleetKindNames, name);
}

std::string_view to_string(PipelineStep step) noexcept {
  return name_of(kPipelineStepNames, step);
}

std::optional<PipelineStep> pipeline_step_from_string(
    std::string_view name) noexcept {
  return value_of(kPipelineStepNames, name);
}

std::string_view to_string(ScenarioEventKind kind) noexcept {
  return name_of(kEventKindNames, kind);
}

std::optional<ScenarioEventKind> event_kind_from_string(
    std::string_view name) noexcept {
  return value_of(kEventKindNames, name);
}

std::string_view to_string(FaultKind kind) noexcept {
  return name_of(kFaultKindNames, kind);
}

std::optional<FaultKind> fault_kind_from_string(std::string_view name) noexcept {
  return value_of(kFaultKindNames, name);
}

std::string_view to_string(AssertOp op) noexcept {
  switch (op) {
    case AssertOp::kGe: return ">=";
    case AssertOp::kLe: return "<=";
    case AssertOp::kGt: return ">";
    case AssertOp::kLt: return "<";
    case AssertOp::kEq: return "==";
    case AssertOp::kNe: return "!=";
  }
  return "?";
}

bool ScenarioAssertion::holds(double observed) const noexcept {
  switch (op) {
    case AssertOp::kGe: return observed >= value;
    case AssertOp::kLe: return observed <= value;
    case AssertOp::kGt: return observed > value;
    case AssertOp::kLt: return observed < value;
    case AssertOp::kEq: return observed == value;
    case AssertOp::kNe: return observed != value;
  }
  return false;
}

const std::vector<std::string>& known_metrics() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& [name, step] : metric_registry()) names.push_back(name);
    return names;
  }();
  return kNames;
}

const std::vector<std::string>& known_pool_metrics() {
  static const std::vector<std::string> kNames = {
      "max_active_servers", "mean_cpu_pct", "mean_p95_ms", "mean_rps",
      "min_active_servers", "peak_cpu_pct", "peak_p95_ms", "peak_rps",
  };
  return kNames;
}

std::optional<PoolMetricRef> parse_pool_metric(std::string_view name,
                                               std::string* error) {
  if (error != nullptr) error->clear();
  if (!name.starts_with("pool(")) return std::nullopt;
  const auto bad = [&]() -> std::optional<PoolMetricRef> {
    if (error != nullptr) {
      *error = "bad pool assertion target '" + std::string(name) +
               "' (expected pool(DC,POOL).metric)";
    }
    return std::nullopt;
  };
  const std::size_t close = name.find(')');
  if (close == std::string_view::npos) return bad();
  const std::string_view args = name.substr(5, close - 5);
  const std::size_t comma = args.find(',');
  if (comma == std::string_view::npos) return bad();
  const auto parse_u32 = [](std::string_view text,
                            std::uint32_t* out) -> bool {
    if (text.empty() || text.size() > 9) return false;
    std::uint32_t v = 0;
    for (char c : text) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + static_cast<std::uint32_t>(c - '0');
    }
    *out = v;
    return true;
  };
  PoolMetricRef ref;
  if (!parse_u32(args.substr(0, comma), &ref.datacenter) ||
      !parse_u32(args.substr(comma + 1), &ref.pool)) {
    return bad();
  }
  if (close + 1 >= name.size() || name[close + 1] != '.') return bad();
  ref.base = std::string(name.substr(close + 2));
  if (ref.base.empty()) return bad();
  return ref;
}

std::string validate(const ScenarioSpec& spec) {
  if (spec.name.empty()) return "scenario name is empty";
  if (spec.days < 1) return "days must be >= 1";
  if (spec.window_seconds <= 0) return "window_seconds must be positive";
  if (spec.steps == 0) return "no pipeline steps selected";

  const std::size_t dc_count = spec.fleet == FleetKind::kSinglePool ? 1
                               : spec.fleet == FleetKind::kMultiDc
                                   ? spec.datacenters
                                   : 9;
  const std::size_t pools_per_dc =
      spec.fleet == FleetKind::kStandard
          ? (spec.services.empty() ? 7 : spec.services.size())
          : 1;

  if (spec.fleet != FleetKind::kStandard) {
    if (spec.service.empty()) return "fleet service is empty";
    if (spec.servers < 1) return "fleet servers must be >= 1";
  }
  if (spec.fleet == FleetKind::kSinglePool && spec.datacenters > 1) {
    return "single_pool fleets have exactly one datacenter";
  }
  if (spec.fleet == FleetKind::kMultiDc &&
      (spec.datacenters < 2 || spec.datacenters > 9)) {
    return "multi_dc fleets need 2..9 datacenters";
  }
  if (spec.fleet == FleetKind::kStandard && spec.regional_peak_rps <= 0.0) {
    return "regional_peak_rps must be positive";
  }
  if (std::string off_kind = check_fleet_fields(spec); !off_kind.empty()) {
    return off_kind;
  }

  for (std::size_t i = 0; i < spec.datacenter_overrides.size(); ++i) {
    const DatacenterOverride& o = spec.datacenter_overrides[i];
    if (o.datacenter >= dc_count) {
      return "[datacenter " + std::to_string(o.datacenter) +
             "] is out of range (fleet has " + std::to_string(dc_count) +
             " datacenter(s))";
    }
    if (o.demand_weight && *o.demand_weight <= 0.0) {
      return "[datacenter " + std::to_string(o.datacenter) +
             "] demand_weight must be positive";
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.datacenter_overrides[j].datacenter == o.datacenter) {
        return "duplicate [datacenter " + std::to_string(o.datacenter) +
               "] section";
      }
    }
  }

  for (std::size_t i = 0; i < spec.pool_overrides.size(); ++i) {
    const PoolOverride& o = spec.pool_overrides[i];
    const std::string where = "[pool " + std::to_string(o.datacenter) + " " +
                              std::to_string(o.pool) + "]";
    if (o.datacenter >= dc_count || o.pool >= pools_per_dc) {
      return where + " is out of range (fleet has " +
             std::to_string(dc_count) + " datacenter(s) x " +
             std::to_string(pools_per_dc) + " pool(s))";
    }
    if (o.servers && *o.servers < 1) return where + " servers must be >= 1";
    if (o.demand_multiplier && *o.demand_multiplier <= 0.0) {
      return where + " demand_multiplier must be positive";
    }
    if (o.burst_multiplier && *o.burst_multiplier <= 0.0) {
      return where + " burst_multiplier must be positive";
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.pool_overrides[j].datacenter == o.datacenter &&
          spec.pool_overrides[j].pool == o.pool) {
        return "duplicate " + where + " section";
      }
    }
  }

  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    const ScenarioEvent& e = spec.events[i];
    const std::string where = "event " + std::to_string(i + 1);
    if (e.start_hour < 0.0 || !std::isfinite(e.start_hour)) {
      return where + ": start_hour must be >= 0";
    }
    if (e.datacenter && *e.datacenter >= dc_count) {
      return where + ": datacenter " + std::to_string(*e.datacenter) +
             " is out of range (fleet has " + std::to_string(dc_count) +
             " datacenter(s))";
    }
    if (e.pool && *e.pool >= pools_per_dc) {
      return where + ": pool " + std::to_string(*e.pool) +
             " is out of range (fleet has " + std::to_string(pools_per_dc) +
             " pool(s) per datacenter)";
    }
    // Keep programmatic specs as strict as parsed ones: a pool target on a
    // demand-level event would be silently ignored by the runner and
    // cannot survive a serialize/parse round trip.
    if (e.pool && (e.kind == ScenarioEventKind::kTrafficMultiplier ||
                   e.kind == ScenarioEventKind::kDatacenterOutage)) {
      return where + ": 'pool' does not apply to this event kind";
    }
    switch (e.kind) {
      case ScenarioEventKind::kTrafficMultiplier:
        if (e.duration_hours <= 0.0) {
          return where + ": duration_hours must be positive";
        }
        if (e.multiplier <= 0.0) {
          return where + ": multiplier must be positive";
        }
        break;
      case ScenarioEventKind::kDatacenterOutage:
        if (e.duration_hours <= 0.0) {
          return where + ": duration_hours must be positive";
        }
        break;
      case ScenarioEventKind::kMaintenanceWave:
        if (e.duration_hours <= 0.0) {
          return where + ": duration_hours must be positive";
        }
        if (e.offline_fraction <= 0.0 || e.offline_fraction > 1.0) {
          return where + ": offline_fraction must be in (0, 1]";
        }
        break;
      case ScenarioEventKind::kServingReduction:
        if (e.serving < 1) return where + ": serving must be >= 1";
        if (!e.datacenter || !e.pool) {
          return where + ": serving_reduction needs explicit datacenter "
                         "and pool";
        }
        break;
    }
    // Overlap rules: concurrent multipliers compound by design, but two
    // outages of one DC or two reductions of one pool at the same instant
    // are contradictory instructions.
    for (std::size_t j = 0; j < i; ++j) {
      const ScenarioEvent& p = spec.events[j];
      if (p.kind != e.kind) continue;
      if (e.kind == ScenarioEventKind::kDatacenterOutage) {
        const bool same_target = !e.datacenter || !p.datacenter ||
                                 *e.datacenter == *p.datacenter;
        const bool overlap =
            e.start_hour < p.start_hour + p.duration_hours &&
            p.start_hour < e.start_hour + e.duration_hours;
        if (same_target && overlap) {
          return where + ": overlaps outage event " + std::to_string(j + 1) +
                 " on the same datacenter";
        }
      } else if (e.kind == ScenarioEventKind::kServingReduction) {
        if (*e.datacenter == *p.datacenter && *e.pool == *p.pool &&
            e.start_hour == p.start_hour) {
          return where + ": duplicate serving_reduction at hour " +
                 telemetry::format_double(e.start_hour) +
                 " for the same pool";
        }
      }
    }
  }

  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSpec& f = spec.faults[i];
    const std::string where = "fault " + std::to_string(i + 1);
    if (f.start_hour < 0.0 || !std::isfinite(f.start_hour)) {
      return where + ": start_hour must be >= 0";
    }
    if (f.duration_hours <= 0.0 || !std::isfinite(f.duration_hours)) {
      return where + ": duration_hours must be positive";
    }
    if (f.kind == FaultKind::kFeedStall) {
      if (f.datacenter || f.pool) {
        return where + ": feed_stall freezes every pool; 'datacenter' and "
                       "'pool' do not apply";
      }
    } else {
      if (f.datacenter && *f.datacenter >= dc_count) {
        return where + ": datacenter " + std::to_string(*f.datacenter) +
               " is out of range (fleet has " + std::to_string(dc_count) +
               " datacenter(s))";
      }
      if (f.pool && *f.pool >= pools_per_dc) {
        return where + ": pool " + std::to_string(*f.pool) +
               " is out of range (fleet has " + std::to_string(pools_per_dc) +
               " pool(s) per datacenter)";
      }
    }
    if (f.kind == FaultKind::kClockSkew) {
      if (f.skew_seconds == 0.0 || !std::isfinite(f.skew_seconds) ||
          std::abs(f.skew_seconds) >=
              static_cast<double>(spec.window_seconds)) {
        return where + ": clock_skew needs a non-zero skew_seconds smaller "
                       "than one window";
      }
    } else if (f.skew_seconds != 0.0) {
      return where + ": 'skew_seconds' only applies to clock_skew";
    }
  }

  for (const ScenarioAssertion& a : spec.assertions) {
    std::string pool_error;
    if (const auto ref = parse_pool_metric(a.metric, &pool_error)) {
      if (!std::binary_search(known_pool_metrics().begin(),
                              known_pool_metrics().end(), ref->base)) {
        return "unknown pool metric '" + ref->base + "' in assertion '" +
               a.metric + "'";
      }
      if (ref->datacenter >= dc_count) {
        return "assertion '" + a.metric + "': datacenter " +
               std::to_string(ref->datacenter) +
               " is out of range (fleet has " + std::to_string(dc_count) +
               " datacenter(s))";
      }
      if (ref->pool >= pools_per_dc) {
        return "assertion '" + a.metric + "': pool " +
               std::to_string(ref->pool) + " is out of range (fleet has " +
               std::to_string(pools_per_dc) + " pool(s) per datacenter)";
      }
    } else if (!pool_error.empty()) {
      return pool_error;
    } else {
      const auto it = metric_registry().find(a.metric);
      if (it == metric_registry().end()) {
        return "unknown assertion metric '" + a.metric + "'";
      }
      if (it->second && !spec.runs(*it->second)) {
        return "assertion on '" + a.metric + "' requires the " +
               std::string(to_string(*it->second)) + " step";
      }
    }
    if (!std::isfinite(a.value)) {
      return "assertion on '" + a.metric + "' has a non-finite value";
    }
  }
  return "";
}

}  // namespace headroom::scenario
