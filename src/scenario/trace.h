// Trace capture and replay: a scenario run serialized to a directory of
// CSVs, and the pipeline re-executed from that directory with no simulator
// in the loop (the paper's §II-B2 posture — the service is a black box
// observed through recorded telemetry).
//
// Trace directory layout (export_trace writes, replay_trace reads):
//   scenario.scn        canonical serialization of the spec (round-trip
//                       exact, so the replay reruns the identical config)
//   manifest.ini        format version, horizon, file index
//   pool_<dc>_<p>.csv   pool-scope windows, inner-joined on window_start
//                       (write_pool_csv format, shortest-roundtrip doubles)
//   server_day_cpu.csv  per-server-day CPU percentile snapshots (the
//                       grouping step's feature rows)
//   summary.txt         the machine summary of the recording run — the
//                       byte string a correct replay must reproduce
#pragma once

#include <string>
#include <vector>

#include "scenario/scenario_runner.h"

namespace headroom::scenario {

struct TraceExportResult {
  std::string error;               ///< Empty on success.
  std::vector<std::string> files;  ///< Paths written, in write order.

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Runs the scenario and captures the run as a replayable trace directory
/// (created if needed). On success `*result` holds the run result, so the
/// caller can print the same summary `summary.txt` pins. Spec and runtime
/// problems throw (as ScenarioRunner::run does); filesystem problems are
/// reported in the returned error.
[[nodiscard]] TraceExportResult export_trace(const ScenarioSpec& spec,
                                             const std::string& dir,
                                             ScenarioRunResult* result);

struct TraceReplayResult {
  std::string error;  ///< Empty on success (file-level diagnostics).
  ScenarioRunResult result;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Loads a trace directory and replays the scenario's pipeline against the
/// recording (ScenarioRunner::replay). Malformed manifests/CSVs come back
/// as `source:line: message` diagnostics in `error`; a replay that diverges
/// from the recording throws std::runtime_error (the sealed LiveFeedBackend).
[[nodiscard]] TraceReplayResult replay_trace(const std::string& dir);

/// One pool CSV of a trace directory, resolved to an openable path.
struct TracePoolFeed {
  std::uint32_t datacenter = 0;
  std::uint32_t pool = 0;
  std::string path;
};

/// The static parts of a trace directory: everything follow mode reads
/// once up front, before it starts tailing the (possibly still growing)
/// pool CSVs listed in `pools`.
struct TraceFeedInfo {
  ScenarioSpec spec;
  std::vector<sim::ServerDayCpu> server_days;
  std::vector<TracePoolFeed> pools;
};

/// Loads manifest, scenario, and server-day rows of a trace directory and
/// resolves the pool CSV paths without reading them (serve --follow tails
/// those as they grow on disk). Validates the same manifest/scenario
/// cross-checks replay_trace does. Returns "" on success, else a
/// `source:line: message` diagnostic.
[[nodiscard]] std::string load_trace_feed(const std::string& dir,
                                          TraceFeedInfo* out);

}  // namespace headroom::scenario
