#include "scenario/scenario_parser.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <type_traits>
#include <vector>

#include "sim/failover.h"
#include "telemetry/csv.h"

namespace headroom::scenario {

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

namespace {

[[nodiscard]] std::vector<std::string> split_list(std::string_view value,
                                                  char sep) {
  std::vector<std::string> out;
  while (!value.empty()) {
    const std::size_t pos = value.find(sep);
    const std::string_view item = trim(value.substr(0, pos));
    if (!item.empty()) out.emplace_back(item);
    if (pos == std::string_view::npos) break;
    value.remove_prefix(pos + 1);
  }
  return out;
}

[[nodiscard]] std::string join(const std::vector<std::string>& items,
                               std::string_view sep) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += sep;
    out += item;
  }
  return out;
}

// Both number parsers must consume the whole value: strto* stops at an
// embedded NUL, which would otherwise accept "5\0junk" as 5.

[[nodiscard]] bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

[[nodiscard]] bool parse_double(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

// --- The grammar ------------------------------------------------------------
//
// Each section's keys are one table of Key rows: the key, the kinds it
// applies to, the values it accepts and the field it reads and writes. The
// parser looks keys up in these tables, and serialize_scenario walks the
// same rows in order, so a row's position is its place in the canonical form.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The values a key accepts: lo..hi less `except` (an open bound; NaN
/// excludes nothing). `expected` ends a bad value's diagnostic; for a text
/// key it is the whole diagnostic for an empty value (empty: any text).
struct Rule {
  std::string_view expected;
  double lo = -kInf;
  double hi = kInf;
  double except = std::numeric_limits<double>::quiet_NaN();

  [[nodiscard]] constexpr bool accepts(double v) const noexcept {
    return v >= lo && v <= hi && v != except;
  }
};

constexpr Rule kTrueOrFalse{"true or false"};
constexpr Rule kPositive{"positive number", 0.0, kInf, 0.0};
constexpr Rule kNonNegative{"non-negative number", 0.0};
constexpr Rule kServerCount{"integer 1..1000000", 1, 1000000};
constexpr Rule kPoolIndex{"index 0..63", 0, 63};

/// How a row reads its value into the section's object and writes it back.
template <typename T>
struct Access {
  /// Sets the field from `value`; returns "" or the diagnostic.
  std::string (*set)(T& obj, const std::string& value, std::string_view key,
                     const Rule& rule);
  /// The value as written, or nullopt where the key is left out.
  std::optional<std::string> (*get)(const T& obj);
};

template <typename T>
struct Key {
  std::string_view name;
  std::uint8_t kinds;  ///< Bit k: the key applies to kind k (see kind_of).
  Rule rule;
  Access<T> access;
};

constexpr std::uint8_t kAllKinds = 0xFF;

template <typename Enum>
constexpr std::uint8_t bit(Enum kind) noexcept {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(kind));
}

/// The kind a section's key set depends on, as the diagnostics name it.
struct KindOf {
  std::string_view noun;
  std::string_view name;
  std::uint8_t bit = kAllKinds;
};

KindOf kind_of(const ScenarioSpec& spec) {
  return {"fleet", to_string(spec.fleet), bit(spec.fleet)};
}
KindOf kind_of(const ScenarioEvent& event) {
  return {"event", to_string(event.kind), bit(event.kind)};
}
KindOf kind_of(const FaultSpec& fault) {
  return {"fault", to_string(fault.kind), bit(fault.kind)};
}
template <typename T>
KindOf kind_of(const T&) {
  return {};
}

[[nodiscard]] std::string not_valid(std::string_view key, const KindOf& kind) {
  return "key '" + std::string(key) + "' is not valid for " +
         std::string(kind.noun) + " kind '" + std::string(kind.name) + "'";
}

// Value reading and writing by field type.

bool read_value(const std::string& text, const Rule& rule, double* out) {
  double v = 0.0;
  if (!parse_double(text, &v) || !rule.accepts(v)) return false;
  *out = v;
  return true;
}

template <typename Int>
  requires(std::is_integral_v<Int> && !std::is_same_v<Int, bool>)
bool read_value(const std::string& text, const Rule& rule, Int* out) {
  std::uint64_t v = 0;
  if (!parse_u64(text, &v) || !rule.accepts(static_cast<double>(v))) {
    return false;
  }
  *out = static_cast<Int>(v);
  return true;
}

bool read_value(const std::string& text, const Rule&, bool* out) {
  if (text != "true" && text != "1" && text != "false" && text != "0") {
    return false;
  }
  *out = text == "true" || text == "1";
  return true;
}

bool read_value(const std::string& text, const Rule&,
                sim::FailoverPolicyKind* out) {
  return sim::failover_policy_from_string(text, *out);
}

template <typename V>
bool read_value(const std::string& text, const Rule& rule,
                std::optional<V>* out) {
  V v{};
  if (!read_value(text, rule, &v)) return false;
  *out = v;
  return true;
}

// Shortest-roundtrip doubles, shared with the CSV trace exporter so
// scenario files and traces pin the same byte representation of a double.
std::string write_value(double v) { return telemetry::format_double(v); }
std::string write_value(bool v) { return v ? "true" : "false"; }
std::string write_value(const std::string& v) { return v; }

template <typename Int>
  requires(std::is_integral_v<Int> && !std::is_same_v<Int, bool>)
std::string write_value(Int v) {
  return std::to_string(v);
}

template <typename Enum>
  requires std::is_enum_v<Enum>
std::string write_value(Enum v) {
  return std::string(to_string(v));
}

template <typename T, typename V>
T owner_of(V T::*);
template <typename T, typename V>
V value_of(V T::*);
template <auto M>
using OwnerOf = decltype(owner_of(M));
template <auto M>
using ValueOf = decltype(value_of(M));

template <typename>
constexpr bool kIsOptional = false;
template <typename V>
constexpr bool kIsOptional<std::optional<V>> = true;

template <auto M>
std::string set_field(OwnerOf<M>& obj, const std::string& value,
                      std::string_view key, const Rule& rule) {
  if constexpr (std::is_same_v<ValueOf<M>, std::string>) {
    if (value.empty() && !rule.expected.empty()) {
      return std::string(rule.expected);
    }
    obj.*M = value;
    return "";
  } else {
    if (read_value(value, rule, &(obj.*M))) return "";
    return "bad value '" + value + "' for '" + std::string(key) +
           "' (expected " + std::string(rule.expected) + ")";
  }
}

/// An unset optional is left out, and so is a `kOmit` field that holds
/// its default: every file that never set it stays byte-identical.
template <auto M, bool kOmit>
std::optional<std::string> get_field(const OwnerOf<M>& obj) {
  const ValueOf<M>& v = obj.*M;
  if constexpr (kIsOptional<ValueOf<M>>) {
    if (!v) return std::nullopt;
    return write_value(*v);
  } else {
    if (kOmit && v == OwnerOf<M>{}.*M) return std::nullopt;
    return write_value(v);
  }
}

constexpr bool kOmitDefault = true;

/// The Access of a plain field: `value` is read and written by its type.
template <auto M, bool kOmit = false>
constexpr Access<OwnerOf<M>> field{&set_field<M>, &get_field<M, kOmit>};

template <auto M, auto kFromString>
std::string set_kind(OwnerOf<M>& obj, const std::string& value,
                     std::string_view, const Rule& rule) {
  const auto kind = kFromString(value);
  if (!kind) {
    return "unknown " + std::string(kind_of(obj).noun) + " kind '" + value +
           "' (expected " + std::string(rule.expected) + ")";
  }
  obj.*M = *kind;
  return "";
}

/// The Access of a section's `kind` key.
template <auto M, auto kFromString>
constexpr Access<OwnerOf<M>> kind_field{&set_kind<M, kFromString>,
                                        &get_field<M, false>};

// Keys with their own syntax.

std::string set_steps(ScenarioSpec& spec, const std::string& value,
                      std::string_view, const Rule& rule) {
  std::uint8_t steps = 0;
  for (const std::string& item : split_list(value, ',')) {
    const auto step = pipeline_step_from_string(item);
    if (!step) {
      return "unknown step '" + item + "' (expected " +
             std::string(rule.expected) + ")";
    }
    steps |= step_bit(*step);
  }
  if (steps == 0) {
    return "steps must be a non-empty comma list of " +
           std::string(rule.expected);
  }
  spec.steps = steps;
  return "";
}

std::optional<std::string> get_steps(const ScenarioSpec& spec) {
  std::vector<std::string> steps;
  for (const PipelineStep step : kPipelineSteps) {
    if (spec.runs(step)) steps.emplace_back(to_string(step));
  }
  return join(steps, ",");
}

std::string set_services(ScenarioSpec& spec, const std::string& value,
                         std::string_view, const Rule& rule) {
  spec.services = split_list(value, ',');
  if (spec.services.empty()) return std::string(rule.expected);
  return "";
}

std::optional<std::string> get_services(const ScenarioSpec& spec) {
  if (spec.services.empty()) return std::nullopt;
  return join(spec.services, ",");
}

/// An event's datacenter: an index, or `all` (nullopt) for every one.
std::string set_event_datacenter(ScenarioEvent& event, const std::string& value,
                                 std::string_view key, const Rule& rule) {
  if (value == "all") {
    event.datacenter.reset();
    return "";
  }
  return set_field<&ScenarioEvent::datacenter>(event, value, key, rule);
}

std::optional<std::string> get_event_datacenter(const ScenarioEvent& event) {
  return get_field<&ScenarioEvent::datacenter, false>(event).value_or("all");
}

std::string set_expect(ScenarioAssertion& assertion, const std::string& value,
                       std::string_view, const Rule&) {
  const std::vector<std::string> words = split_list(value, ' ');
  if (words.size() != 3) {
    return "bad assertion '" + value + "' (expected 'metric OP value')";
  }
  constexpr AssertOp kOps[] = {AssertOp::kGe, AssertOp::kLe, AssertOp::kGt,
                               AssertOp::kLt, AssertOp::kEq, AssertOp::kNe};
  const auto* op = std::find_if(
      std::begin(kOps), std::end(kOps),
      [&](AssertOp o) { return to_string(o) == words[1]; });
  if (op == std::end(kOps)) {
    return "unknown operator '" + words[1] +
           "' in assertion (expected >=, <=, >, <, ==, !=)";
  }
  if (!parse_double(words[2], &assertion.value)) {
    return "bad assertion value '" + words[2] + "' (expected a number)";
  }
  assertion.metric = words[0];
  assertion.op = *op;
  return "";
}

std::optional<std::string> get_expect(const ScenarioAssertion& assertion) {
  return assertion.metric + " " + std::string(to_string(assertion.op)) + " " +
         write_value(assertion.value);
}

// Keys that more than one section spells (the first two also name the
// [datacenter N] and [pool DC POOL] sections).
constexpr std::string_view kDatacenter = "datacenter";
constexpr std::string_view kPool = "pool";
constexpr std::string_view kKind = "kind";
constexpr std::string_view kServers = "servers";
constexpr std::string_view kStartHour = "start_hour";
constexpr std::string_view kDurationHours = "duration_hours";

constexpr Key<ScenarioSpec> kScenarioKeys[] = {
    {"name", kAllKinds, {"scenario name is empty"},
     field<&ScenarioSpec::name>},
    {"description", kAllKinds, {},
     field<&ScenarioSpec::description, kOmitDefault>},
    {"seed", kAllKinds, {"unsigned integer"}, field<&ScenarioSpec::seed>},
    {"days", kAllKinds, {"integer 1..3650", 1, 3650},
     field<&ScenarioSpec::days>},
    {"threads", kAllKinds, {"integer 0..4096", 0, 4096},
     field<&ScenarioSpec::threads>},
    {"window_seconds", kAllKinds, {"integer 1..86400", 1, 86400},
     field<&ScenarioSpec::window_seconds>},
    // Large-fleet stepping knobs and the failover policy are written only
    // when set away from the default the simulator goldens pin.
    {"quiescent_dead_band", kAllKinds,
     {"number 0..1 (0 = exact stepping)", 0.0, 1.0, 1.0},
     field<&ScenarioSpec::quiescent_dead_band, kOmitDefault>},
    {"per_server_accounting", kAllKinds, kTrueOrFalse,
     field<&ScenarioSpec::per_server_accounting, kOmitDefault>},
    {"failover", kAllKinds, {"nearest_survivor, latency_aware, cost_aware"},
     field<&ScenarioSpec::failover, kOmitDefault>},
    {"steps", kAllKinds, {"measure, optimize, model, validate"},
     {&set_steps, &get_steps}},
};

constexpr std::uint8_t kPerPoolFleets =
    bit(FleetKind::kSinglePool) | bit(FleetKind::kMultiDc);

constexpr Key<ScenarioSpec> kFleetKeys[] = {
    {kKind, kAllKinds, {"single_pool, multi_dc, standard"},
     kind_field<&ScenarioSpec::fleet, &fleet_kind_from_string>},
    {"datacenters", bit(FleetKind::kMultiDc), {"integer 1..9", 1, 9},
     field<&ScenarioSpec::datacenters>},
    {"services", bit(FleetKind::kStandard),
     {"services must be a non-empty comma list"},
     {&set_services, &get_services}},
    {"regional_peak_rps", bit(FleetKind::kStandard), kPositive,
     field<&ScenarioSpec::regional_peak_rps>},
    {"heterogeneous", bit(FleetKind::kStandard), kTrueOrFalse,
     field<&ScenarioSpec::heterogeneous>},
    {"service", kPerPoolFleets, {"fleet service is empty"},
     field<&ScenarioSpec::service>},
    {kServers, kPerPoolFleets, kServerCount, field<&ScenarioSpec::servers>},
};

constexpr Key<DatacenterOverride> kDatacenterKeys[] = {
    {"demand_weight", kAllKinds, kPositive,
     field<&DatacenterOverride::demand_weight>},
    {"timezone_offset_hours", kAllKinds, {"number -12..14", -12.0, 14.0},
     field<&DatacenterOverride::timezone_offset_hours>},
};

constexpr Key<PoolOverride> kPoolKeys[] = {
    {kServers, kAllKinds, kServerCount, field<&PoolOverride::servers>},
    {"demand_multiplier", kAllKinds, kPositive,
     field<&PoolOverride::demand_multiplier>},
    {"burst_multiplier", kAllKinds, kPositive,
     field<&PoolOverride::burst_multiplier>},
    {"burst_start_hour", kAllKinds, {"number 0..24", 0.0, 24.0, 24.0},
     field<&PoolOverride::burst_start_hour>},
    {"burst_hours", kAllKinds, {"number 0..24", 0.0, 24.0},
     field<&PoolOverride::burst_hours>},
};

constexpr std::uint8_t kPoolEvents = bit(ScenarioEventKind::kMaintenanceWave) |
                                     bit(ScenarioEventKind::kServingReduction);

constexpr Key<ScenarioEvent> kEventKeys[] = {
    {kKind, kAllKinds,
     {"traffic_multiplier, outage, maintenance_wave, serving_reduction"},
     kind_field<&ScenarioEvent::kind, &event_kind_from_string>},
    {kDatacenter, kAllKinds, {"index 0..8 or 'all'", 0, 8},
     {&set_event_datacenter, &get_event_datacenter}},
    {kPool, kPoolEvents, kPoolIndex, field<&ScenarioEvent::pool>},
    {kStartHour, kAllKinds, kNonNegative, field<&ScenarioEvent::start_hour>},
    {kDurationHours,
     static_cast<std::uint8_t>(~bit(ScenarioEventKind::kServingReduction)),
     kNonNegative, field<&ScenarioEvent::duration_hours>},
    {"multiplier", bit(ScenarioEventKind::kTrafficMultiplier), kPositive,
     field<&ScenarioEvent::multiplier>},
    {"offline_fraction", bit(ScenarioEventKind::kMaintenanceWave),
     {"number in (0, 1]", 0.0, 1.0, 0.0},
     field<&ScenarioEvent::offline_fraction>},
    {"serving", bit(ScenarioEventKind::kServingReduction), kServerCount,
     field<&ScenarioEvent::serving>},
};

/// A feed stall freezes every pool's feed, so it takes no pool target.
constexpr std::uint8_t kPoolFaults =
    static_cast<std::uint8_t>(~bit(FaultKind::kFeedStall));

constexpr Key<FaultSpec> kFaultKeys[] = {
    {kKind, kAllKinds,
     {"telemetry_gap, nan_burst, duplicate_window, out_of_order_window, "
      "corrupt_row, feed_stall, clock_skew"},
     kind_field<&FaultSpec::kind, &fault_kind_from_string>},
    {kDatacenter, kPoolFaults, {"index 0..8", 0, 8},
     field<&FaultSpec::datacenter>},
    {kPool, kPoolFaults, kPoolIndex, field<&FaultSpec::pool>},
    {kStartHour, kAllKinds, kNonNegative, field<&FaultSpec::start_hour>},
    {kDurationHours, kAllKinds, kPositive, field<&FaultSpec::duration_hours>},
    {"skew_seconds", bit(FaultKind::kClockSkew),
     {"non-zero number", -kInf, kInf, 0.0}, field<&FaultSpec::skew_seconds>},
};

constexpr Key<ScenarioAssertion> kAssertKeys[] = {
    {"expect", kAllKinds, {}, {&set_expect, &get_expect}},
};

// [event] and [fault] take `kind` first, and it is their first row.
static_assert(kEventKeys[0].name == kKind && kFaultKeys[0].name == kKind);

/// The most keys any section has; sizes the parser's per-key line slots.
constexpr std::size_t kMaxKeys = std::size(kScenarioKeys);

template <typename T, std::size_t N>
void write_keys(std::string& out, const Key<T> (&table)[N], const T& obj) {
  const std::uint8_t kind = kind_of(obj).bit;
  for (const Key<T>& key : table) {
    if ((key.kinds & kind) == 0) continue;
    if (const std::optional<std::string> value = key.access.get(obj)) {
      out += key.name;
      out += " = ";
      out += *value;
      out += '\n';
    }
  }
}

enum class Section {
  kNone,
  kScenario,
  kFleet,
  kDatacenter,
  kPool,
  kEvent,
  kFault,
  kAssert,
};

/// How diagnostics name each Section, in enum order.
constexpr std::string_view kSectionNames[] = {
    "",       "[scenario]", "[fleet]", "[datacenter]",
    "[pool]", "[event]",    "[fault]", "[assert]",
};

class Parser {
 public:
  Parser(std::string_view text, std::string_view source)
      : text_(text), source_(source) {}

  ParseResult run() {
    std::size_t pos = 0;
    while (pos < text_.size() && error_.empty()) {
      std::size_t eol = text_.find('\n', pos);
      if (eol == std::string_view::npos) eol = text_.size();
      ++line_;
      handle_line(trim(text_.substr(pos, eol - pos)));
      pos = eol + 1;
    }
    if (error_.empty()) finish_section();
    if (error_.empty() && !seen_scenario_) {
      error_ = std::string(source_) + ": missing [scenario] section";
    }
    if (error_.empty() && spec_.name.empty()) {
      error_ = std::string(source_) + ": missing required key 'name' in [scenario]";
    }
    if (error_.empty()) {
      const std::string problem = validate(spec_);
      if (!problem.empty()) error_ = std::string(source_) + ": " + problem;
    }
    ParseResult result;
    result.error = std::move(error_);
    if (result.ok()) result.spec = std::move(spec_);
    return result;
  }

 private:
  void fail(const std::string& message) {
    error_ = std::string(source_) + ":" + std::to_string(line_) + ": " + message;
  }

  void handle_line(std::string_view line) {
    if (line.empty() || line.front() == '#') return;
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        fail("unterminated section header '" + std::string(line) + "'");
        return;
      }
      finish_section();
      if (!error_.empty()) return;
      open_section(trim(line.substr(1, line.size() - 2)));
      return;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || trim(line.substr(0, eq)).empty()) {
      fail("expected 'key = value', got '" + std::string(line) + "'");
      return;
    }
    const std::string key{trim(line.substr(0, eq))};
    const std::string value{trim(line.substr(eq + 1))};
    switch (section_) {
      case Section::kScenario: return handle_key(kScenarioKeys, spec_, key, value);
      case Section::kFleet: return handle_key(kFleetKeys, spec_, key, value);
      case Section::kDatacenter: return handle_key(kDatacenterKeys, dc_, key, value);
      case Section::kPool: return handle_key(kPoolKeys, pool_, key, value);
      case Section::kEvent: return handle_key(kEventKeys, event_, key, value);
      case Section::kFault: return handle_key(kFaultKeys, fault_, key, value);
      case Section::kAssert: return handle_key(kAssertKeys, assert_, key, value);
      case Section::kNone: return fail("key '" + key + "' before any section");
    }
  }

  void open_section(std::string_view header) {
    const std::vector<std::string> words = split_list(header, ' ');
    const std::string name = words.empty() ? std::string() : words[0];
    section_line_ = line_;
    key_line_.fill(0);
    if (name == "scenario" && words.size() == 1) {
      if (seen_scenario_) return fail("duplicate [scenario] section");
      seen_scenario_ = true;
      section_ = Section::kScenario;
    } else if (name == "fleet" && words.size() == 1) {
      if (seen_fleet_) return fail("duplicate [fleet] section");
      seen_fleet_ = true;
      section_ = Section::kFleet;
    } else if (name == kDatacenter) {
      std::uint64_t index = 0;
      if (words.size() != 2 || !parse_u64(words[1], &index) || index > 8) {
        return fail("[datacenter] needs a datacenter index 0..8");
      }
      section_ = Section::kDatacenter;
      dc_ = DatacenterOverride{};
      dc_.datacenter = static_cast<std::uint32_t>(index);
    } else if (name == kPool) {
      std::uint64_t dc = 0;
      std::uint64_t pool = 0;
      if (words.size() != 3 || !parse_u64(words[1], &dc) ||
          !parse_u64(words[2], &pool) || dc > 8 || pool > 63) {
        return fail("[pool] needs 'DC POOL' indices (DC 0..8, POOL 0..63)");
      }
      section_ = Section::kPool;
      pool_ = PoolOverride{};
      pool_.datacenter = static_cast<std::uint32_t>(dc);
      pool_.pool = static_cast<std::uint32_t>(pool);
    } else if (name == "event" && words.size() == 1) {
      section_ = Section::kEvent;
      event_ = ScenarioEvent{};
    } else if (name == "fault" && words.size() == 1) {
      section_ = Section::kFault;
      fault_ = FaultSpec{};
    } else if (name == "assert" && words.size() == 1) {
      section_ = Section::kAssert;
      assert_ = ScenarioAssertion{};
    } else {
      fail("unknown section '[" + std::string(header) + "]'");
    }
  }

  /// Closes the current section, committing repeatable-section objects.
  void finish_section() {
    switch (section_) {
      case Section::kFleet: check_fleet_kinds(); break;
      case Section::kDatacenter: spec_.datacenter_overrides.push_back(dc_); break;
      case Section::kPool: spec_.pool_overrides.push_back(pool_); break;
      case Section::kEvent: commit(kEventKeys, event_, spec_.events); break;
      case Section::kFault: commit(kFaultKeys, fault_, spec_.faults); break;
      case Section::kAssert: commit(kAssertKeys, assert_, spec_.assertions); break;
      case Section::kNone:
      case Section::kScenario:
        break;
    }
    section_ = Section::kNone;
  }

  [[nodiscard]] std::string section_name() const {
    return std::string(kSectionNames[static_cast<std::size_t>(section_)]);
  }

  /// Commits a repeatable section, whose first row's key is required.
  template <typename T, std::size_t N>
  void commit(const Key<T> (&table)[N], const T& obj, std::vector<T>& list) {
    if (key_line_[0] != 0) return list.push_back(obj);
    line_ = section_line_;
    fail(section_name() + " missing required key '" +
         std::string(table[0].name) + "'");
  }

  /// [fleet] keys may precede `kind`, so the kind check waits for the
  /// section's end. A key the kind does not take would be dropped by
  /// serialize_scenario; it is reported at its own line.
  void check_fleet_kinds() {
    const KindOf kind = kind_of(spec_);
    const Key<ScenarioSpec>* off_kind = nullptr;
    int at = 0;
    for (std::size_t i = 0; i < std::size(kFleetKeys); ++i) {
      const int line = key_line_[i];
      if (line != 0 && (kFleetKeys[i].kinds & kind.bit) == 0 &&
          (off_kind == nullptr || line < at)) {
        off_kind = &kFleetKeys[i];
        at = line;
      }
    }
    if (off_kind == nullptr) return;
    line_ = at;
    fail(not_valid(off_kind->name, kind));
  }

  template <typename T, std::size_t N>
  void handle_key(const Key<T> (&table)[N], T& obj, const std::string& key,
                  const std::string& value) {
    static_assert(N <= kMaxKeys);
    const Key<T>* row = std::find_if(
        std::begin(table), std::end(table),
        [&](const Key<T>& k) { return k.name == key; });
    if (row == std::end(table)) row = nullptr;
    int* line = row == nullptr ? nullptr : &key_line_[row - table];
    if (line != nullptr && *line != 0) {
      return fail("duplicate key '" + key + "' in " + section_name());
    }
    if constexpr (std::is_same_v<T, ScenarioEvent> ||
                  std::is_same_v<T, FaultSpec>) {
      if (key != kKind && key_line_[0] == 0) {
        return fail("'kind' must be the first key in " + section_name());
      }
      if (row == nullptr || (row->kinds & kind_of(obj).bit) == 0) {
        return fail(not_valid(key, kind_of(obj)));
      }
    } else if (row == nullptr) {
      // A one-key section names the key it expects.
      return fail("unknown key '" + key + "' in " + section_name() +
                  (N == 1 ? " (expected '" + std::string(table[0].name) + "')"
                          : std::string()));
    }
    *line = line_;
    const std::string problem = row->access.set(obj, value, row->name, row->rule);
    if (!problem.empty()) fail(problem);
  }

  std::string_view text_;
  std::string_view source_;
  int line_ = 0;
  int section_line_ = 0;
  std::string error_;
  ScenarioSpec spec_;
  Section section_ = Section::kNone;
  /// The line each key of the open section was set on (0: not yet), by
  /// row of the section's table.
  std::array<int, kMaxKeys> key_line_{};
  bool seen_scenario_ = false;
  bool seen_fleet_ = false;
  DatacenterOverride dc_;
  PoolOverride pool_;
  ScenarioEvent event_;
  FaultSpec fault_;
  ScenarioAssertion assert_;
};

}  // namespace

ParseResult parse_scenario(std::string_view text, std::string_view source_name) {
  return Parser(text, source_name).run();
}

ParseResult load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ParseResult result;
    result.error = path + ": cannot open scenario file";
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario(buffer.str(), path);
}

std::string serialize_scenario(const ScenarioSpec& spec) {
  std::string out = "[scenario]\n";
  write_keys(out, kScenarioKeys, spec);
  out += "\n[fleet]\n";
  write_keys(out, kFleetKeys, spec);
  for (const DatacenterOverride& dc : spec.datacenter_overrides) {
    out += "\n[" + std::string(kDatacenter) + " " +
           std::to_string(dc.datacenter) + "]\n";
    write_keys(out, kDatacenterKeys, dc);
  }
  for (const PoolOverride& pool : spec.pool_overrides) {
    out += "\n[" + std::string(kPool) + " " + std::to_string(pool.datacenter) +
           " " + std::to_string(pool.pool) + "]\n";
    write_keys(out, kPoolKeys, pool);
  }
  for (const ScenarioEvent& event : spec.events) {
    out += "\n[event]\n";
    write_keys(out, kEventKeys, event);
  }
  for (const FaultSpec& fault : spec.faults) {
    out += "\n[fault]\n";
    write_keys(out, kFaultKeys, fault);
  }
  for (const ScenarioAssertion& assertion : spec.assertions) {
    out += "\n[assert]\n";
    write_keys(out, kAssertKeys, assertion);
  }
  return out;
}

}  // namespace headroom::scenario
