#include "scenario/trace.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string_view>

#include "scenario/pipeline_session.h"
#include "scenario/scenario_parser.h"
#include "telemetry/csv.h"

namespace headroom::scenario {

namespace {

namespace fs = std::filesystem;

constexpr int kTraceFormatVersion = 1;
constexpr std::string_view kManifestName = "manifest.ini";
constexpr std::string_view kScenarioName = "scenario.scn";
constexpr std::string_view kServerDayName = "server_day_cpu.csv";
constexpr std::string_view kSummaryName = "summary.txt";
constexpr std::string_view kServerDayHeader =
    "datacenter,pool,server,day,p5,p25,p50,p75,p95,mean,min,max,count";

/// Every metric kind, enum order — write_pool_csv skips absent ones.
[[nodiscard]] std::vector<telemetry::MetricKind> all_metric_kinds() {
  std::vector<telemetry::MetricKind> kinds;
  kinds.reserve(telemetry::kMetricKindCount);
  for (std::size_t i = 0; i < telemetry::kMetricKindCount; ++i) {
    kinds.push_back(static_cast<telemetry::MetricKind>(i));
  }
  return kinds;
}

[[nodiscard]] std::string pool_file_name(std::uint32_t dc, std::uint32_t pool) {
  return "pool_" + std::to_string(dc) + "_" + std::to_string(pool) + ".csv";
}

[[nodiscard]] bool parse_u32(const std::string& text, std::uint32_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      v > 0xFFFFFFFFull) {
    return false;
  }
  *out = static_cast<std::uint32_t>(v);
  return true;
}

// --- Export ----------------------------------------------------------------

[[nodiscard]] std::string serialize_server_days(
    std::span<const sim::ServerDayCpu> rows) {
  std::string out{kServerDayHeader};
  out += "\n";
  for (const sim::ServerDayCpu& row : rows) {
    // Sequential appends: GCC 12's -Wrestrict mis-fires on
    // `"literal" + std::to_string(...)` chains here.
    out += std::to_string(row.datacenter);
    out += ',';
    out += std::to_string(row.pool);
    out += ',';
    out += std::to_string(row.server);
    out += ',';
    out += std::to_string(row.day);
    const telemetry::PercentileSnapshot& s = row.cpu;
    for (const double v : {s.p5, s.p25, s.p50, s.p75, s.p95, s.mean, s.min,
                           s.max}) {
      out += ',';
      out += telemetry::format_double(v);
    }
    out += ',';
    out += std::to_string(s.count);
    out += '\n';
  }
  return out;
}

// --- Replay: manifest ------------------------------------------------------

struct PoolEntry {
  std::uint32_t datacenter = 0;
  std::uint32_t pool = 0;
  std::string file;
};

struct Manifest {
  std::string scenario_file;
  std::string server_day_file;
  telemetry::SimTime window_seconds = 0;
  telemetry::SimTime horizon_seconds = 0;
  std::vector<PoolEntry> pools;
};

/// Parses manifest.ini; returns "" or a `source:line: message` diagnostic.
[[nodiscard]] std::string parse_manifest(std::istream& in,
                                         const std::string& source,
                                         Manifest* manifest) {
  const auto fail = [&source](std::size_t line, const std::string& message) {
    return source + ":" + std::to_string(line) + ": " + message;
  };
  bool seen_version = false;
  std::string line;
  std::size_t line_no = 0;
  while (telemetry::read_csv_line(in, &line)) {
    ++line_no;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const std::size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return fail(line_no, "expected 'key = value', got '" +
                               std::string(trimmed) + "'");
    }
    const std::string key{trim(trimmed.substr(0, eq))};
    const std::string value{trim(trimmed.substr(eq + 1))};
    if (key == "version") {
      std::int64_t v = 0;
      if (!telemetry::parse_int64(value, &v) || v != kTraceFormatVersion) {
        return fail(line_no, "unsupported trace format version '" + value +
                                 "' (this build reads version " +
                                 std::to_string(kTraceFormatVersion) + ")");
      }
      seen_version = true;
    } else if (key == "scenario") {
      manifest->scenario_file = value;
    } else if (key == "server_day_cpu") {
      manifest->server_day_file = value;
    } else if (key == "summary") {
      // Informational: the recording's summary; not needed for replay.
    } else if (key == "window_seconds") {
      std::int64_t v = 0;
      if (!telemetry::parse_int64(value, &v) || v <= 0) {
        return fail(line_no, "bad window_seconds '" + value + "'");
      }
      manifest->window_seconds = v;
    } else if (key == "horizon_seconds") {
      std::int64_t v = 0;
      if (!telemetry::parse_int64(value, &v) || v <= 0) {
        return fail(line_no, "bad horizon_seconds '" + value + "'");
      }
      manifest->horizon_seconds = v;
    } else if (key == "pool") {
      const std::vector<std::string> words =
          telemetry::split_csv_fields(value, ' ');
      PoolEntry entry;
      if (words.size() != 3 || !parse_u32(words[0], &entry.datacenter) ||
          !parse_u32(words[1], &entry.pool) || words[2].empty()) {
        return fail(line_no,
                    "bad pool entry '" + value + "' (expected 'DC POOL FILE')");
      }
      for (const PoolEntry& listed : manifest->pools) {
        if (listed.datacenter == entry.datacenter &&
            listed.pool == entry.pool) {
          return fail(line_no, "pool (" + std::to_string(entry.datacenter) +
                                   ", " + std::to_string(entry.pool) +
                                   ") is listed twice");
        }
      }
      entry.file = words[2];
      manifest->pools.push_back(entry);
    } else {
      return fail(line_no, "unknown manifest key '" + key + "'");
    }
  }
  if (!seen_version) return source + ": missing 'version' key";
  if (manifest->scenario_file.empty()) {
    return source + ": missing 'scenario' key";
  }
  if (manifest->server_day_file.empty()) {
    return source + ": missing 'server_day_cpu' key";
  }
  if (manifest->window_seconds <= 0) {
    return source + ": missing 'window_seconds' key";
  }
  if (manifest->horizon_seconds <= 0) {
    return source + ": missing 'horizon_seconds' key";
  }
  if (manifest->pools.empty()) {
    return source + ": no 'pool' entries";
  }
  return "";
}

/// Parses server_day_cpu.csv; returns "" or a diagnostic.
[[nodiscard]] std::string parse_server_days(
    std::istream& in, const std::string& source,
    std::vector<sim::ServerDayCpu>* rows) {
  const auto fail = [&source](std::size_t line, const std::string& message) {
    return source + ":" + std::to_string(line) + ": " + message;
  };
  std::string line;
  std::size_t line_no = 1;
  if (!telemetry::read_csv_line(in, &line) || line != kServerDayHeader) {
    return fail(line_no, "bad header (expected '" +
                             std::string(kServerDayHeader) + "')");
  }
  while (telemetry::read_csv_line(in, &line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = telemetry::split_csv_fields(line, ',');
    if (fields.size() != 13) {
      return fail(line_no, "expected 13 fields, got " +
                               std::to_string(fields.size()));
    }
    sim::ServerDayCpu row;
    std::int64_t count = 0;
    if (!parse_u32(fields[0], &row.datacenter) ||
        !parse_u32(fields[1], &row.pool) ||
        !parse_u32(fields[2], &row.server) ||
        !telemetry::parse_int64(fields[3], &row.day)) {
      return fail(line_no, "bad row key '" + line + "'");
    }
    double* const snapshot_fields[] = {&row.cpu.p5,  &row.cpu.p25,
                                       &row.cpu.p50, &row.cpu.p75,
                                       &row.cpu.p95, &row.cpu.mean,
                                       &row.cpu.min, &row.cpu.max};
    for (std::size_t i = 0; i < 8; ++i) {
      if (!telemetry::parse_finite_double(fields[4 + i], snapshot_fields[i])) {
        return fail(line_no, "bad value '" + fields[4 + i] + "'");
      }
    }
    if (!telemetry::parse_int64(fields[12], &count) || count < 0) {
      return fail(line_no, "bad count '" + fields[12] + "'");
    }
    row.cpu.count = static_cast<std::size_t>(count);
    rows->push_back(row);
  }
  return "";
}

}  // namespace

std::string write_text_file(const fs::path& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
  out.close();
  if (out.fail()) return "cannot write '" + path.string() + "'";
  return "";
}

TraceExportResult export_trace(const ScenarioSpec& spec,
                               const std::string& dir,
                               ScenarioRunResult* result) {
  TraceExportResult out;

  // Fail on an unwritable destination before paying for the simulation.
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    out.error = "cannot create trace directory '" + dir + "': " + ec.message();
    return out;
  }
  const fs::path root{dir};

  const sim::MicroserviceCatalog catalog;
  sim::FleetConfig config = ScenarioRunner::build_fleet(spec, catalog);
  sim::FleetSimulator fleet(std::move(config), catalog);
  ScenarioRunResult run = ScenarioRunner().run_on_fleet(spec, fleet, catalog);

  const auto write_file = [&](std::string_view name,
                              const std::string& contents) {
    const fs::path path = root / name;
    const std::string problem = write_text_file(path, contents);
    if (!problem.empty()) {
      out.error = problem;
      return false;
    }
    out.files.push_back(path.string());
    return true;
  };

  if (!write_file(kScenarioName, serialize_scenario(spec))) return out;

  std::string manifest;
  manifest += "# headroom trace manifest — see scenario/trace.h\n";
  manifest += "version = " + std::to_string(kTraceFormatVersion) + "\n";
  manifest += "scenario = " + std::string(kScenarioName) + "\n";
  manifest +=
      "window_seconds = " + std::to_string(spec.window_seconds) + "\n";
  manifest +=
      "horizon_seconds = " + std::to_string(spec.days * kDaySeconds) + "\n";
  manifest += "server_day_cpu = " + std::string(kServerDayName) + "\n";
  manifest += "summary = " + std::string(kSummaryName) + "\n";

  const std::vector<telemetry::MetricKind> kinds = all_metric_kinds();
  const sim::FleetConfig& built = fleet.config();
  for (std::uint32_t d = 0; d < built.datacenters.size(); ++d) {
    for (std::uint32_t p = 0; p < built.datacenters[d].pools.size(); ++p) {
      std::ostringstream csv;
      if (telemetry::write_pool_csv(csv, fleet.store(), d, p, kinds) == 0) {
        continue;  // pool recorded nothing (dark the whole run)
      }
      const std::string name = pool_file_name(d, p);
      if (!write_file(name, csv.str())) return out;
      manifest += "pool = " + std::to_string(d) + " " + std::to_string(p) +
                  " " + name + "\n";
    }
  }

  if (!write_file(kServerDayName,
                  serialize_server_days(fleet.server_day_cpu()))) {
    return out;
  }
  if (!write_file(kSummaryName, format_summary(run))) return out;
  if (!write_file(kManifestName, manifest)) return out;

  if (result != nullptr) *result = std::move(run);
  return out;
}

std::string load_trace_feed(const std::string& dir, TraceFeedInfo* out) {
  const fs::path root{dir};

  const fs::path manifest_path = root / kManifestName;
  std::ifstream manifest_in(manifest_path, std::ios::binary);
  if (!manifest_in) {
    return manifest_path.string() + ": cannot open trace manifest";
  }
  Manifest manifest;
  std::string problem =
      parse_manifest(manifest_in, manifest_path.string(), &manifest);
  if (!problem.empty()) return problem;

  const fs::path scenario_path = root / manifest.scenario_file;
  ParseResult parsed = load_scenario_file(scenario_path.string());
  if (!parsed.ok()) return parsed.error;
  if (parsed.spec.window_seconds != manifest.window_seconds) {
    return manifest_path.string() +
           ": window_seconds disagrees with the scenario (" +
           std::to_string(manifest.window_seconds) + " vs " +
           std::to_string(parsed.spec.window_seconds) + ")";
  }
  if (parsed.spec.days * kDaySeconds != manifest.horizon_seconds) {
    return manifest_path.string() +
           ": horizon_seconds disagrees with the scenario's days (" +
           std::to_string(manifest.horizon_seconds) + " vs " +
           std::to_string(parsed.spec.days * kDaySeconds) + ")";
  }

  bool has_target_pool = false;
  std::vector<TracePoolFeed> pools;
  for (const PoolEntry& entry : manifest.pools) {
    TracePoolFeed feed;
    feed.datacenter = entry.datacenter;
    feed.pool = entry.pool;
    feed.path = (root / entry.file).string();
    pools.push_back(std::move(feed));
    has_target_pool =
        has_target_pool || (entry.datacenter == 0 && entry.pool == 0);
  }
  if (!has_target_pool) {
    return manifest_path.string() +
           ": trace has no pool (0, 0) — the pipeline's target pool";
  }

  std::vector<sim::ServerDayCpu> server_days;
  const fs::path days_path = root / manifest.server_day_file;
  std::ifstream days_in(days_path, std::ios::binary);
  if (!days_in) {
    return days_path.string() + ": cannot open server-day trace";
  }
  problem = parse_server_days(days_in, days_path.string(), &server_days);
  if (!problem.empty()) return problem;

  out->spec = std::move(parsed.spec);
  out->server_days = std::move(server_days);
  out->pools = std::move(pools);
  return "";
}

std::string read_trace_pools(const TraceFeedInfo& info,
                             telemetry::MetricStore* store) {
  for (const TracePoolFeed& feed : info.pools) {
    std::ifstream in(feed.path, std::ios::binary);
    if (!in) return feed.path + ": cannot open pool trace";
    const telemetry::CsvReadResult read = telemetry::read_pool_csv(
        in, feed.path, store, feed.datacenter, feed.pool);
    if (!read.ok()) return read.error;
  }
  return "";
}

TraceReplayResult replay_trace(const std::string& dir) {
  TraceReplayResult out;
  TraceFeedInfo info;
  out.error = load_trace_feed(dir, &info);
  if (!out.ok()) return out;
  telemetry::MetricStore trace;
  out.error = read_trace_pools(info, &trace);
  if (!out.ok()) return out;
  out.result = ScenarioRunner().replay(info.spec, trace, info.server_days);
  return out;
}

}  // namespace headroom::scenario
