#include "scenario/scenario_parser.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
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

class Parser {
 public:
  Parser(std::string_view text, std::string_view source)
      : text_(text), source_(source) {}

  ParseResult run() {
    std::size_t pos = 0;
    while (pos <= text_.size() && error_.empty()) {
      if (pos == text_.size()) break;
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
    if (section_ == Section::kNone) {
      fail("key '" + key + "' before any section");
      return;
    }
    if (!seen_keys_.insert(key).second) {
      fail("duplicate key '" + key + "' in " + section_name_);
      return;
    }
    handle_key(key, value);
  }

  void open_section(std::string_view header) {
    const std::vector<std::string> words = split_list(header, ' ');
    const std::string name = words.empty() ? std::string() : words[0];
    section_line_ = line_;
    seen_keys_.clear();
    if (name == "scenario" && words.size() == 1) {
      if (seen_scenario_) return fail("duplicate [scenario] section");
      seen_scenario_ = true;
      section_ = Section::kScenario;
    } else if (name == "fleet" && words.size() == 1) {
      if (seen_fleet_) return fail("duplicate [fleet] section");
      seen_fleet_ = true;
      section_ = Section::kFleet;
    } else if (name == "datacenter") {
      std::uint64_t index = 0;
      if (words.size() != 2 || !parse_u64(words[1], &index) || index > 8) {
        return fail("[datacenter] needs a datacenter index 0..8");
      }
      section_ = Section::kDatacenter;
      dc_ = DatacenterOverride{};
      dc_.datacenter = static_cast<std::uint32_t>(index);
    } else if (name == "pool") {
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
      event_has_kind_ = false;
    } else if (name == "fault" && words.size() == 1) {
      section_ = Section::kFault;
      fault_ = FaultSpec{};
      fault_has_kind_ = false;
    } else if (name == "assert" && words.size() == 1) {
      section_ = Section::kAssert;
      assert_ = ScenarioAssertion{};
      assert_has_expect_ = false;
    } else {
      fail("unknown section '[" + std::string(header) + "]'");
    }
  }

  /// Closes the current section, committing repeatable-section objects.
  void finish_section() {
    const int at = section_line_;
    switch (section_) {
      case Section::kDatacenter:
        spec_.datacenter_overrides.push_back(dc_);
        break;
      case Section::kPool:
        spec_.pool_overrides.push_back(pool_);
        break;
      case Section::kEvent:
        if (!event_has_kind_) {
          line_ = at;
          fail("[event] missing required key 'kind'");
          return;
        }
        spec_.events.push_back(event_);
        break;
      case Section::kFault:
        if (!fault_has_kind_) {
          line_ = at;
          fail("[fault] missing required key 'kind'");
          return;
        }
        spec_.faults.push_back(fault_);
        break;
      case Section::kAssert:
        if (!assert_has_expect_) {
          line_ = at;
          fail("[assert] missing required key 'expect'");
          return;
        }
        spec_.assertions.push_back(assert_);
        break;
      case Section::kNone:
      case Section::kScenario:
      case Section::kFleet:
        break;
    }
    section_ = Section::kNone;
    section_name_.clear();
  }

  void handle_key(const std::string& key, const std::string& value) {
    switch (section_) {
      case Section::kScenario: return scenario_key(key, value);
      case Section::kFleet: return fleet_key(key, value);
      case Section::kDatacenter: return datacenter_key(key, value);
      case Section::kPool: return pool_key(key, value);
      case Section::kEvent: return event_key(key, value);
      case Section::kFault: return fault_key(key, value);
      case Section::kAssert: return assert_key(key, value);
      case Section::kNone: break;
    }
  }

  void scenario_key(const std::string& key, const std::string& value) {
    section_name_ = "[scenario]";
    if (key == "name") {
      if (value.empty()) return fail("scenario name is empty");
      spec_.name = value;
    } else if (key == "description") {
      spec_.description = value;
    } else if (key == "seed") {
      std::uint64_t v = 0;
      if (!parse_u64(value, &v)) return bad_value(key, value, "unsigned integer");
      spec_.seed = v;
    } else if (key == "days") {
      std::uint64_t v = 0;
      if (!parse_u64(value, &v) || v < 1 || v > 3650) {
        return bad_value(key, value, "integer 1..3650");
      }
      spec_.days = static_cast<std::int64_t>(v);
    } else if (key == "threads") {
      std::uint64_t v = 0;
      if (!parse_u64(value, &v) || v > 4096) {
        return bad_value(key, value, "integer 0..4096");
      }
      spec_.threads = v;
    } else if (key == "window_seconds") {
      std::uint64_t v = 0;
      if (!parse_u64(value, &v) || v < 1 || v > 86400) {
        return bad_value(key, value, "integer 1..86400");
      }
      spec_.window_seconds = static_cast<telemetry::SimTime>(v);
    } else if (key == "steps") {
      std::uint8_t steps = 0;
      for (const std::string& item : split_list(value, ',')) {
        const auto step = pipeline_step_from_string(item);
        if (!step) {
          return fail("unknown step '" + item +
                      "' (expected measure, optimize, model, validate)");
        }
        steps |= step_bit(*step);
      }
      if (steps == 0) {
        return fail("steps must be a non-empty comma list of "
                    "measure, optimize, model, validate");
      }
      spec_.steps = steps;
    } else if (key == "quiescent_dead_band") {
      double v = 0.0;
      if (!parse_double(value, &v) || v < 0.0 || v >= 1.0) {
        return bad_value(key, value, "number 0..1 (0 = exact stepping)");
      }
      spec_.quiescent_dead_band = v;
    } else if (key == "per_server_accounting") {
      if (!parse_bool(value, &spec_.per_server_accounting)) {
        return bad_value(key, value, "true or false");
      }
    } else if (key == "failover") {
      sim::FailoverPolicyKind kind{};
      if (!sim::failover_policy_from_string(value, kind)) {
        return bad_value(key, value,
                         "nearest_survivor, latency_aware, cost_aware");
      }
      spec_.failover = kind;
    } else {
      fail("unknown key '" + key + "' in [scenario]");
    }
  }

  void fleet_key(const std::string& key, const std::string& value) {
    section_name_ = "[fleet]";
    if (key == "kind") {
      const auto kind = fleet_kind_from_string(value);
      if (!kind) {
        return fail("unknown fleet kind '" + value +
                    "' (expected single_pool, multi_dc, standard)");
      }
      spec_.fleet = *kind;
    } else if (key == "service") {
      if (value.empty()) return fail("fleet service is empty");
      spec_.service = value;
    } else if (key == "servers") {
      std::uint64_t v = 0;
      if (!parse_u64(value, &v) || v < 1 || v > 1000000) {
        return bad_value(key, value, "integer 1..1000000");
      }
      spec_.servers = v;
    } else if (key == "datacenters") {
      std::uint64_t v = 0;
      if (!parse_u64(value, &v) || v < 1 || v > 9) {
        return bad_value(key, value, "integer 1..9");
      }
      spec_.datacenters = v;
    } else if (key == "services") {
      spec_.services = split_list(value, ',');
      if (spec_.services.empty()) {
        return fail("services must be a non-empty comma list");
      }
    } else if (key == "regional_peak_rps") {
      double v = 0.0;
      if (!parse_double(value, &v) || v <= 0.0) {
        return bad_value(key, value, "positive number");
      }
      spec_.regional_peak_rps = v;
    } else if (key == "heterogeneous") {
      if (!parse_bool(value, &spec_.heterogeneous)) {
        return bad_value(key, value, "true or false");
      }
    } else {
      fail("unknown key '" + key + "' in [fleet]");
    }
  }

  void datacenter_key(const std::string& key, const std::string& value) {
    section_name_ = "[datacenter]";
    double v = 0.0;
    if (key == "demand_weight") {
      if (!parse_double(value, &v) || v <= 0.0) {
        return bad_value(key, value, "positive number");
      }
      dc_.demand_weight = v;
    } else if (key == "timezone_offset_hours") {
      if (!parse_double(value, &v) || v < -12.0 || v > 14.0) {
        return bad_value(key, value, "number -12..14");
      }
      dc_.timezone_offset_hours = v;
    } else {
      fail("unknown key '" + key + "' in [datacenter]");
    }
  }

  void pool_key(const std::string& key, const std::string& value) {
    section_name_ = "[pool]";
    double v = 0.0;
    if (key == "servers") {
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n < 1 || n > 1000000) {
        return bad_value(key, value, "integer 1..1000000");
      }
      pool_.servers = n;
    } else if (key == "demand_multiplier") {
      if (!parse_double(value, &v) || v <= 0.0) {
        return bad_value(key, value, "positive number");
      }
      pool_.demand_multiplier = v;
    } else if (key == "burst_multiplier") {
      if (!parse_double(value, &v) || v <= 0.0) {
        return bad_value(key, value, "positive number");
      }
      pool_.burst_multiplier = v;
    } else if (key == "burst_start_hour") {
      if (!parse_double(value, &v) || v < 0.0 || v >= 24.0) {
        return bad_value(key, value, "number 0..24");
      }
      pool_.burst_start_hour = v;
    } else if (key == "burst_hours") {
      if (!parse_double(value, &v) || v < 0.0 || v > 24.0) {
        return bad_value(key, value, "number 0..24");
      }
      pool_.burst_hours = v;
    } else {
      fail("unknown key '" + key + "' in [pool]");
    }
  }

  void event_key(const std::string& key, const std::string& value) {
    section_name_ = "[event]";
    if (key == "kind") {
      const auto kind = event_kind_from_string(value);
      if (!kind) {
        return fail("unknown event kind '" + value +
                    "' (expected traffic_multiplier, outage, "
                    "maintenance_wave, serving_reduction)");
      }
      event_.kind = *kind;
      event_has_kind_ = true;
      return;
    }
    if (!event_has_kind_) {
      return fail("'kind' must be the first key in [event]");
    }
    if (!event_key_allowed(key)) {
      return fail("key '" + key + "' is not valid for event kind '" +
                  std::string(to_string(event_.kind)) + "'");
    }
    double v = 0.0;
    if (key == "datacenter") {
      if (value == "all") {
        event_.datacenter.reset();
        return;
      }
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n > 8) {
        return bad_value(key, value, "index 0..8 or 'all'");
      }
      event_.datacenter = static_cast<std::uint32_t>(n);
    } else if (key == "pool") {
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n > 63) {
        return bad_value(key, value, "index 0..63");
      }
      event_.pool = static_cast<std::uint32_t>(n);
    } else if (key == "start_hour") {
      if (!parse_double(value, &v) || v < 0.0) {
        return bad_value(key, value, "non-negative number");
      }
      event_.start_hour = v;
    } else if (key == "duration_hours") {
      if (!parse_double(value, &v) || v < 0.0) {
        return bad_value(key, value, "non-negative number");
      }
      event_.duration_hours = v;
    } else if (key == "multiplier") {
      if (!parse_double(value, &v) || v <= 0.0) {
        return bad_value(key, value, "positive number");
      }
      event_.multiplier = v;
    } else if (key == "offline_fraction") {
      if (!parse_double(value, &v) || v <= 0.0 || v > 1.0) {
        return bad_value(key, value, "number in (0, 1]");
      }
      event_.offline_fraction = v;
    } else if (key == "serving") {
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n < 1 || n > 1000000) {
        return bad_value(key, value, "integer 1..1000000");
      }
      event_.serving = n;
    }
  }

  [[nodiscard]] bool event_key_allowed(const std::string& key) const {
    switch (event_.kind) {
      case ScenarioEventKind::kTrafficMultiplier:
        return key == "datacenter" || key == "start_hour" ||
               key == "duration_hours" || key == "multiplier";
      case ScenarioEventKind::kDatacenterOutage:
        return key == "datacenter" || key == "start_hour" ||
               key == "duration_hours";
      case ScenarioEventKind::kMaintenanceWave:
        return key == "datacenter" || key == "pool" || key == "start_hour" ||
               key == "duration_hours" || key == "offline_fraction";
      case ScenarioEventKind::kServingReduction:
        return key == "datacenter" || key == "pool" || key == "start_hour" ||
               key == "serving";
    }
    return false;
  }

  void fault_key(const std::string& key, const std::string& value) {
    section_name_ = "[fault]";
    if (key == "kind") {
      const auto kind = fault_kind_from_string(value);
      if (!kind) {
        return fail("unknown fault kind '" + value +
                    "' (expected telemetry_gap, nan_burst, duplicate_window, "
                    "out_of_order_window, corrupt_row, feed_stall, "
                    "clock_skew)");
      }
      fault_.kind = *kind;
      fault_has_kind_ = true;
      return;
    }
    if (!fault_has_kind_) {
      return fail("'kind' must be the first key in [fault]");
    }
    if (!fault_key_allowed(key)) {
      return fail("key '" + key + "' is not valid for fault kind '" +
                  std::string(to_string(fault_.kind)) + "'");
    }
    double v = 0.0;
    if (key == "datacenter") {
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n > 8) {
        return bad_value(key, value, "index 0..8");
      }
      fault_.datacenter = static_cast<std::uint32_t>(n);
    } else if (key == "pool") {
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n > 63) {
        return bad_value(key, value, "index 0..63");
      }
      fault_.pool = static_cast<std::uint32_t>(n);
    } else if (key == "start_hour") {
      if (!parse_double(value, &v) || v < 0.0) {
        return bad_value(key, value, "non-negative number");
      }
      fault_.start_hour = v;
    } else if (key == "duration_hours") {
      if (!parse_double(value, &v) || v <= 0.0) {
        return bad_value(key, value, "positive number");
      }
      fault_.duration_hours = v;
    } else if (key == "skew_seconds") {
      if (!parse_double(value, &v) || v == 0.0) {
        return bad_value(key, value, "non-zero number");
      }
      fault_.skew_seconds = v;
    }
  }

  [[nodiscard]] bool fault_key_allowed(const std::string& key) const {
    switch (fault_.kind) {
      case FaultKind::kFeedStall:
        return key == "start_hour" || key == "duration_hours";
      case FaultKind::kClockSkew:
        return key == "datacenter" || key == "pool" || key == "start_hour" ||
               key == "duration_hours" || key == "skew_seconds";
      case FaultKind::kTelemetryGap:
      case FaultKind::kNanBurst:
      case FaultKind::kDuplicateWindow:
      case FaultKind::kOutOfOrderWindow:
      case FaultKind::kCorruptRow:
        return key == "datacenter" || key == "pool" || key == "start_hour" ||
               key == "duration_hours";
    }
    return false;
  }

  void assert_key(const std::string& key, const std::string& value) {
    section_name_ = "[assert]";
    if (key != "expect") {
      return fail("unknown key '" + key + "' in [assert] (expected 'expect')");
    }
    const std::vector<std::string> words = split_list(value, ' ');
    if (words.size() != 3) {
      return fail("bad assertion '" + value +
                  "' (expected 'metric OP value')");
    }
    assert_.metric = words[0];
    if (words[1] == ">=") {
      assert_.op = AssertOp::kGe;
    } else if (words[1] == "<=") {
      assert_.op = AssertOp::kLe;
    } else if (words[1] == ">") {
      assert_.op = AssertOp::kGt;
    } else if (words[1] == "<") {
      assert_.op = AssertOp::kLt;
    } else if (words[1] == "==") {
      assert_.op = AssertOp::kEq;
    } else if (words[1] == "!=") {
      assert_.op = AssertOp::kNe;
    } else {
      return fail("unknown operator '" + words[1] +
                  "' in assertion (expected >=, <=, >, <, ==, !=)");
    }
    if (!parse_double(words[2], &assert_.value)) {
      return fail("bad assertion value '" + words[2] +
                  "' (expected a number)");
    }
    assert_has_expect_ = true;
  }

  void bad_value(const std::string& key, const std::string& value,
                 const std::string& expected) {
    fail("bad value '" + value + "' for '" + key + "' (expected " + expected +
         ")");
  }

  [[nodiscard]] static bool parse_u64(const std::string& text,
                                      std::uint64_t* out) {
    if (text.empty() || text[0] == '-' || text[0] == '+') return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
    *out = v;
    return true;
  }

  [[nodiscard]] static bool parse_double(const std::string& text, double* out) {
    if (text.empty()) return false;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v)) {
      return false;
    }
    *out = v;
    return true;
  }

  [[nodiscard]] static bool parse_bool(const std::string& text, bool* out) {
    if (text == "true" || text == "1") {
      *out = true;
      return true;
    }
    if (text == "false" || text == "0") {
      *out = false;
      return true;
    }
    return false;
  }

  std::string_view text_;
  std::string_view source_;
  int line_ = 0;
  int section_line_ = 0;
  std::string error_;
  ScenarioSpec spec_;
  Section section_ = Section::kNone;
  std::string section_name_;
  std::set<std::string> seen_keys_;
  bool seen_scenario_ = false;
  bool seen_fleet_ = false;
  DatacenterOverride dc_;
  PoolOverride pool_;
  ScenarioEvent event_;
  bool event_has_kind_ = false;
  FaultSpec fault_;
  bool fault_has_kind_ = false;
  ScenarioAssertion assert_;
  bool assert_has_expect_ = false;
};

// Shortest-roundtrip formatting, shared with the CSV trace exporter so
// scenario files and traces pin the same byte representation of a double.
[[nodiscard]] std::string fmt_double(double v) {
  return telemetry::format_double(v);
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
  std::string out;
  out += "[scenario]\n";
  out += "name = " + spec.name + "\n";
  if (!spec.description.empty()) {
    out += "description = " + spec.description + "\n";
  }
  out += "seed = " + std::to_string(spec.seed) + "\n";
  out += "days = " + std::to_string(spec.days) + "\n";
  out += "threads = " + std::to_string(spec.threads) + "\n";
  out += "window_seconds = " + std::to_string(spec.window_seconds) + "\n";
  // Large-fleet stepping knobs: emitted only when non-default, so every
  // pre-existing scenario (and its embedded-trace golden) round-trips
  // byte-identically.
  if (spec.quiescent_dead_band != 0.0) {
    out += "quiescent_dead_band = " + fmt_double(spec.quiescent_dead_band) +
           "\n";
  }
  if (!spec.per_server_accounting) {
    out += "per_server_accounting = false\n";
  }
  if (spec.failover != sim::FailoverPolicyKind::kNearestSurvivor) {
    out += "failover = " + sim::to_string(spec.failover) + "\n";
  }
  std::vector<std::string> steps;
  for (const PipelineStep step : kPipelineSteps) {
    if (spec.runs(step)) steps.emplace_back(to_string(step));
  }
  out += "steps = " + join(steps, ",") + "\n";

  out += "\n[fleet]\n";
  out += "kind = " + std::string(to_string(spec.fleet)) + "\n";
  switch (spec.fleet) {
    case FleetKind::kSinglePool:
      break;
    case FleetKind::kMultiDc:
      out += "datacenters = " + std::to_string(spec.datacenters) + "\n";
      break;
    case FleetKind::kStandard:
      if (!spec.services.empty()) {
        out += "services = " + join(spec.services, ",") + "\n";
      }
      out += "regional_peak_rps = " + fmt_double(spec.regional_peak_rps) + "\n";
      out += std::string("heterogeneous = ") +
             (spec.heterogeneous ? "true" : "false") + "\n";
      break;
  }
  if (spec.fleet != FleetKind::kStandard) {
    out += "service = " + spec.service + "\n";
    out += "servers = " + std::to_string(spec.servers) + "\n";
  }

  for (const DatacenterOverride& dc : spec.datacenter_overrides) {
    out += "\n[datacenter " + std::to_string(dc.datacenter) + "]\n";
    if (dc.demand_weight) {
      out += "demand_weight = " + fmt_double(*dc.demand_weight) + "\n";
    }
    if (dc.timezone_offset_hours) {
      out += "timezone_offset_hours = " + fmt_double(*dc.timezone_offset_hours) +
             "\n";
    }
  }

  for (const PoolOverride& pool : spec.pool_overrides) {
    out += "\n[pool " + std::to_string(pool.datacenter) + " " +
           std::to_string(pool.pool) + "]\n";
    if (pool.servers) {
      out += "servers = " + std::to_string(*pool.servers) + "\n";
    }
    if (pool.demand_multiplier) {
      out += "demand_multiplier = " + fmt_double(*pool.demand_multiplier) + "\n";
    }
    if (pool.burst_multiplier) {
      out += "burst_multiplier = " + fmt_double(*pool.burst_multiplier) + "\n";
    }
    if (pool.burst_start_hour) {
      out += "burst_start_hour = " + fmt_double(*pool.burst_start_hour) + "\n";
    }
    if (pool.burst_hours) {
      out += "burst_hours = " + fmt_double(*pool.burst_hours) + "\n";
    }
  }

  for (const ScenarioEvent& e : spec.events) {
    out += "\n[event]\n";
    out += "kind = " + std::string(to_string(e.kind)) + "\n";
    out += "datacenter = " +
           (e.datacenter ? std::to_string(*e.datacenter) : std::string("all")) +
           "\n";
    // Only the pool-scoped event kinds take a pool key (the parser rejects
    // it elsewhere, and validate() rejects such specs outright).
    if (e.pool && (e.kind == ScenarioEventKind::kMaintenanceWave ||
                   e.kind == ScenarioEventKind::kServingReduction)) {
      out += "pool = " + std::to_string(*e.pool) + "\n";
    }
    out += "start_hour = " + fmt_double(e.start_hour) + "\n";
    if (e.kind != ScenarioEventKind::kServingReduction) {
      out += "duration_hours = " + fmt_double(e.duration_hours) + "\n";
    }
    if (e.kind == ScenarioEventKind::kTrafficMultiplier) {
      out += "multiplier = " + fmt_double(e.multiplier) + "\n";
    }
    if (e.kind == ScenarioEventKind::kMaintenanceWave) {
      out += "offline_fraction = " + fmt_double(e.offline_fraction) + "\n";
    }
    if (e.kind == ScenarioEventKind::kServingReduction) {
      out += "serving = " + std::to_string(e.serving) + "\n";
    }
  }

  for (const FaultSpec& f : spec.faults) {
    out += "\n[fault]\n";
    out += "kind = " + std::string(to_string(f.kind)) + "\n";
    if (f.datacenter) {
      out += "datacenter = " + std::to_string(*f.datacenter) + "\n";
    }
    if (f.pool) out += "pool = " + std::to_string(*f.pool) + "\n";
    out += "start_hour = " + fmt_double(f.start_hour) + "\n";
    out += "duration_hours = " + fmt_double(f.duration_hours) + "\n";
    if (f.kind == FaultKind::kClockSkew) {
      out += "skew_seconds = " + fmt_double(f.skew_seconds) + "\n";
    }
  }

  for (const ScenarioAssertion& a : spec.assertions) {
    out += "\n[assert]\n";
    out += "expect = " + a.metric + " " + std::string(to_string(a.op)) + " " +
           fmt_double(a.value) + "\n";
  }
  return out;
}

}  // namespace headroom::scenario
