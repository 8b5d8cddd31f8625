// Declarative scenario specification.
//
// A scenario bundles everything one `headroom run` needs: the fleet
// topology (single pool, replicated multi-DC, or the full standard fleet),
// an event timeline (DC outages, flash-crowd traffic multipliers,
// maintenance waves, mid-run serving reductions), pipeline knobs (days,
// seed, threads, which methodology steps to run), and expected-outcome
// assertions checked against the run's summary metrics. Specs are built by
// the parser (scenario_parser.h) from a small self-contained text format,
// or programmatically (the CLI's legacy flag mode builds one from flags).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/topology.h"
#include "telemetry/time_series.h"

namespace headroom::scenario {

/// Fleet topology families, mapping onto the sim/topology.h presets.
enum class FleetKind : std::uint8_t {
  kSinglePool,  ///< One DC, one pool (single_pool_fleet).
  kMultiDc,     ///< One service replicated across N DCs (multi_dc_pool_fleet).
  kStandard,    ///< The full nine-region standard_fleet.
};

/// Scenario-file names: single_pool, multi_dc, standard.
[[nodiscard]] std::string_view to_string(FleetKind kind) noexcept;
[[nodiscard]] std::optional<FleetKind> fleet_kind_from_string(
    std::string_view name) noexcept;

/// The four methodology steps; a scenario may run any subset (later steps
/// never depend on skipped earlier ones at the code level).
enum class PipelineStep : std::uint8_t {
  kMeasure = 0,
  kOptimize = 1,
  kModel = 2,
  kValidate = 3,
};

/// Every step, in pipeline order.
inline constexpr PipelineStep kPipelineSteps[] = {
    PipelineStep::kMeasure, PipelineStep::kOptimize, PipelineStep::kModel,
    PipelineStep::kValidate};

/// Scenario-file names: measure, optimize, model, validate.
[[nodiscard]] std::string_view to_string(PipelineStep step) noexcept;
[[nodiscard]] std::optional<PipelineStep> pipeline_step_from_string(
    std::string_view name) noexcept;

inline constexpr std::uint8_t step_bit(PipelineStep s) noexcept {
  return static_cast<std::uint8_t>(1u << static_cast<std::uint8_t>(s));
}
inline constexpr std::uint8_t kAllSteps =
    step_bit(PipelineStep::kMeasure) | step_bit(PipelineStep::kOptimize) |
    step_bit(PipelineStep::kModel) | step_bit(PipelineStep::kValidate);

/// Timeline event classes. The first two install into the simulator's
/// workload::EventSchedule; maintenance waves become PoolIncidents on the
/// targeted pools; serving reductions are applied mid-run by the runner
/// (the paper's §II-B2 production reduction experiments).
enum class ScenarioEventKind : std::uint8_t {
  kTrafficMultiplier,
  kDatacenterOutage,
  kMaintenanceWave,
  kServingReduction,
};

/// Scenario-file names: traffic_multiplier, outage, maintenance_wave,
/// serving_reduction.
[[nodiscard]] std::string_view to_string(ScenarioEventKind kind) noexcept;
[[nodiscard]] std::optional<ScenarioEventKind> event_kind_from_string(
    std::string_view name) noexcept;

struct ScenarioEvent {
  ScenarioEventKind kind = ScenarioEventKind::kTrafficMultiplier;
  /// Target datacenter, or nullopt for all (traffic/maintenance only).
  std::optional<std::uint32_t> datacenter;
  /// Target pool within the DC (maintenance_wave / serving_reduction);
  /// nullopt = every pool of the targeted DC(s).
  std::optional<std::uint32_t> pool;
  double start_hour = 0.0;      ///< Hours from simulation start.
  double duration_hours = 0.0;  ///< Ignored for serving reductions.
  double multiplier = 1.0;      ///< kTrafficMultiplier only.
  double offline_fraction = 0.0;  ///< kMaintenanceWave only.
  std::size_t serving = 0;        ///< kServingReduction target count.

  [[nodiscard]] bool operator==(const ScenarioEvent&) const = default;
};

/// Optional per-datacenter topology tweaks (demand weight, timezone).
struct DatacenterOverride {
  std::uint32_t datacenter = 0;
  std::optional<double> demand_weight;
  std::optional<double> timezone_offset_hours;

  [[nodiscard]] bool operator==(const DatacenterOverride&) const = default;
};

/// Optional per-pool tweaks: heterogeneous utilization knobs and sizes.
struct PoolOverride {
  std::uint32_t datacenter = 0;
  std::uint32_t pool = 0;
  std::optional<std::size_t> servers;
  std::optional<double> demand_multiplier;
  std::optional<double> burst_multiplier;
  std::optional<double> burst_start_hour;
  std::optional<double> burst_hours;

  [[nodiscard]] bool operator==(const PoolOverride&) const = default;
};

/// Telemetry fault classes injected between the simulator (or trace
/// writer) and the planning pipeline. Faults are window-aligned and
/// deterministic in (seed, fault index, window index), so injection is
/// thread-count invariant; they never touch the simulator's ground truth.
enum class FaultKind : std::uint8_t {
  kTelemetryGap,      ///< Windows silently dropped before delivery.
  kNanBurst,          ///< Delivered values replaced with quiet NaNs.
  kDuplicateWindow,   ///< Each window delivered twice (same timestamp).
  kOutOfOrderWindow,  ///< Adjacent windows delivered swapped.
  kCorruptRow,        ///< One metric per window replaced with garbage.
  kFeedStall,         ///< Whole feed frozen; real data delivered late.
  kClockSkew,         ///< Timestamps shifted off the window grid.
};

[[nodiscard]] std::string_view to_string(FaultKind kind) noexcept;
[[nodiscard]] std::optional<FaultKind> fault_kind_from_string(
    std::string_view name) noexcept;

/// One `[fault]` section. `datacenter`/`pool` default to (0,0) when absent
/// and are rejected for feed_stall (a stall freezes every pool's feed).
struct FaultSpec {
  FaultKind kind = FaultKind::kTelemetryGap;
  std::optional<std::uint32_t> datacenter;
  std::optional<std::uint32_t> pool;
  double start_hour = 0.0;
  double duration_hours = 0.0;
  double skew_seconds = 0.0;  ///< kClockSkew only.

  [[nodiscard]] bool operator==(const FaultSpec&) const = default;
};

enum class AssertOp : std::uint8_t { kGe, kLe, kGt, kLt, kEq, kNe };

[[nodiscard]] std::string_view to_string(AssertOp op) noexcept;

/// One expected-outcome check: `metric op value` against the run summary
/// (e.g. "rsm_reduction_pct >= 20"). Metric names are validated at parse
/// time against scenario::known_metrics().
struct ScenarioAssertion {
  std::string metric;
  AssertOp op = AssertOp::kGe;
  double value = 0.0;

  [[nodiscard]] bool operator==(const ScenarioAssertion&) const = default;
  [[nodiscard]] bool holds(double observed) const noexcept;
};

struct ScenarioSpec {
  // --- [scenario] ---------------------------------------------------------
  std::string name;
  std::string description;
  std::uint64_t seed = 5;
  std::int64_t days = 2;              ///< Observation days before optimizing.
  std::size_t threads = 1;            ///< 0 = hardware concurrency.
  telemetry::SimTime window_seconds = 120;
  std::uint8_t steps = kAllSteps;     ///< OR of step_bit().
  /// Quiescent-pool dead band (FleetConfig::quiescent_dead_band): 0 = the
  /// exact simulator goldens pin; ~0.02 for million-server scenarios.
  double quiescent_dead_band = 0.0;
  /// FleetConfig::per_server_accounting: ledger + per-server-day digests.
  bool per_server_accounting = true;
  /// Outage redistribution policy (sim/failover.h). The default is the
  /// original nearest-survivor behaviour every golden pins.
  sim::FailoverPolicyKind failover = sim::FailoverPolicyKind::kNearestSurvivor;

  // --- [fleet] ------------------------------------------------------------
  FleetKind fleet = FleetKind::kSinglePool;
  std::string service = "D";          ///< single_pool / multi_dc.
  std::size_t servers = 64;           ///< Servers per pool.
  std::size_t datacenters = 1;        ///< multi_dc replica count.
  std::vector<std::string> services;  ///< standard fleet service list.
  double regional_peak_rps = 20000.0; ///< standard fleet demand scale.
  bool heterogeneous = false;         ///< standard fleet hot/cool mix.

  // --- Overrides / timeline / expectations --------------------------------
  std::vector<DatacenterOverride> datacenter_overrides;
  std::vector<PoolOverride> pool_overrides;
  std::vector<ScenarioEvent> events;
  std::vector<FaultSpec> faults;
  std::vector<ScenarioAssertion> assertions;

  [[nodiscard]] bool operator==(const ScenarioSpec&) const = default;
  [[nodiscard]] bool runs(PipelineStep step) const noexcept {
    return (steps & step_bit(step)) != 0;
  }
};

/// The assertion metric vocabulary the runner produces. Sorted.
[[nodiscard]] const std::vector<std::string>& known_metrics();

/// Per-pool assertion targets: `pool(DC,POOL).base` resolves a base metric
/// over one pool's observation-phase series instead of the default summary
/// scope (which covers pool (0,0)).
struct PoolMetricRef {
  std::uint32_t datacenter = 0;
  std::uint32_t pool = 0;
  std::string base;
};

/// Parses `pool(DC,POOL).base`. Returns nullopt when `name` does not use
/// the pool() syntax at all; sets `*error` (and returns nullopt) when it
/// does but is malformed. The base metric is NOT vocabulary-checked here —
/// validate() does that against known_pool_metrics().
[[nodiscard]] std::optional<PoolMetricRef> parse_pool_metric(
    std::string_view name, std::string* error);

/// The per-pool base metric vocabulary (peak/mean of the observation
/// series plus active-server extremes). Sorted.
[[nodiscard]] const std::vector<std::string>& known_pool_metrics();

/// Structural validation beyond per-key parsing: cross-field consistency,
/// overlapping outages / serving reductions, assertion metric names, step
/// availability for asserted metrics. Returns "" when valid, otherwise a
/// one-line description of the first problem found.
[[nodiscard]] std::string validate(const ScenarioSpec& spec);

}  // namespace headroom::scenario
