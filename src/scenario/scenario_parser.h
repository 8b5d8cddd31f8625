// Scenario file format: parse and canonical serialization.
//
// The format is a small self-contained INI dialect — sections of
// `key = value` lines, full-line `#` comments, no external dependencies:
//
//   [scenario]            # name/seed/days/threads/steps/window_seconds
//   [fleet]               # kind + topology knobs
//   [datacenter N]        # optional per-DC overrides (repeatable)
//   [pool DC POOL]        # optional per-pool overrides (repeatable)
//   [event]               # one timeline event (repeatable)
//   [fault]               # one telemetry fault (repeatable)
//   [assert]              # one `expect = metric OP value` (repeatable)
//
// Each section's keys live in one table in scenario_parser.cc, which both
// the parser and the serializer walk.
//
// Malformed input never throws: parse_scenario returns a ParseResult whose
// `error` carries a precise "<source>:<line>: message" diagnostic.
// serialize_scenario emits a canonical form that parses back to an equal
// spec (doubles are printed round-trip exact).
#pragma once

#include <string>
#include <string_view>

#include "scenario/scenario_spec.h"

namespace headroom::scenario {

struct ParseResult {
  ScenarioSpec spec;
  std::string error;  ///< Empty on success.

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Parses scenario text. `source_name` prefixes diagnostics (file name).
[[nodiscard]] ParseResult parse_scenario(std::string_view text,
                                         std::string_view source_name = "scenario");

/// Reads and parses a scenario file.
[[nodiscard]] ParseResult load_scenario_file(const std::string& path);

/// Canonical text form: parse_scenario(serialize_scenario(s)).spec == s
/// for any spec that passes validate().
[[nodiscard]] std::string serialize_scenario(const ScenarioSpec& spec);

/// Strips spaces, tabs and carriage returns from both ends: the blank rule
/// of the scenario grammar and of the trace manifest (scenario/trace.h).
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

}  // namespace headroom::scenario
