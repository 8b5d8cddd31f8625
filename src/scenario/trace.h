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
//
// One loader reads a trace directory for `run --trace`, `plan --trace` and
// `serve --trace --follow`, so a damaged directory gets the same first
// diagnostic from each. The order of checks (load_trace_feed does 1-5,
// read_trace_pools does 6):
//   1. the manifest opens and parses, listing each (DC, POOL) once;
//   2. the scenario file loads;
//   3. the manifest's window_seconds, then its horizon_seconds, agree with
//      the scenario;
//   4. the manifest lists pool (0, 0), the pipeline's target pool;
//   5. the server-day file opens and parses;
//   6. each pool CSV opens and parses, in manifest order. Replay and plan
//      read them whole; follow mode instead tails them as they grow,
//      waiting for a missing one and quarantining a malformed row.
// Between 5 and 6, `plan --trace` also refuses a scenario with a quiescent
// dead band (its report would not be golden-pinnable).
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/scenario_runner.h"
#include "telemetry/metric_store.h"

namespace headroom::scenario {

/// Writes `contents` to `path` (binary, truncating). The file is closed
/// before it is checked, so a write error that only surfaces when the
/// buffered bytes are flushed (a full disk) is caught too. Returns "" or
/// `cannot write 'PATH'`. export_trace and every CLI --out file use it.
[[nodiscard]] std::string write_text_file(const std::filesystem::path& path,
                                          std::string_view contents);

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

/// Loads a trace directory (load_trace_feed, then read_trace_pools) and
/// replays the scenario's pipeline against the recording
/// (ScenarioRunner::replay). Malformed manifests/CSVs come back as
/// `source:line: message` diagnostics in `error`; a replay that diverges
/// from or runs past the recording throws std::runtime_error (the sealed
/// LiveFeedBackend, labelled "headroom replay").
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
/// resolves the pool CSV paths without opening them (serve --follow tails
/// those as they grow on disk): checks 1-5 of the order above. The only
/// code that opens a trace directory. Returns "" on success, else a
/// `source:line: message` diagnostic.
[[nodiscard]] std::string load_trace_feed(const std::string& dir,
                                          TraceFeedInfo* out);

/// Reads every pool CSV of a loaded trace into `store`, in manifest order
/// (check 6 of the order above). Returns "" on success, else the first
/// `source:line: message` diagnostic.
[[nodiscard]] std::string read_trace_pools(const TraceFeedInfo& info,
                                           telemetry::MetricStore* store);

}  // namespace headroom::scenario
