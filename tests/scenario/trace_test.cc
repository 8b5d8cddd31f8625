// Trace directory loading: manifest/CSV diagnostics and replay-input
// validation. The happy path (export -> replay byte-identity) lives in
// tests/integration/trace_roundtrip_test.cc; this file exercises the
// failure surface, mostly on hand-crafted directories with no simulation
// involved, and checks that `run --trace`, `plan --trace` and
// `serve --follow` report the same first diagnostic.
#include "scenario/trace.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "scenario/planning.h"
#include "scenario/serve.h"

namespace headroom::scenario {
namespace {

namespace fs = std::filesystem;

constexpr const char* kScenario =
    "[scenario]\n"
    "name = trace_test\n"
    "days = 1\n"
    "window_seconds = 120\n"
    "steps = model\n"
    "\n"
    "[fleet]\n"
    "kind = single_pool\n"
    "service = D\n"
    "servers = 4\n";

constexpr const char* kManifest =
    "version = 1\n"
    "scenario = scenario.scn\n"
    "window_seconds = 120\n"
    "horizon_seconds = 86400\n"
    "server_day_cpu = server_day_cpu.csv\n"
    "pool = 0 0 pool_0_0.csv\n";

constexpr const char* kServerDays =
    "datacenter,pool,server,day,p5,p25,p50,p75,p95,mean,min,max,count\n"
    "0,0,0,0,1,2,3,4,5,3,1,5,10\n";

/// A minimal-but-valid pool CSV covering one day plus one RSM day.
std::string make_pool_csv() {
  std::string csv =
      "window_start,rps,cpu_pct_attributed,latency_p95_ms,active_servers\n";
  for (std::int64_t t = 0; t < 2 * 86400; t += 120) {
    csv += std::to_string(t) + ",100,40,20,4\n";
  }
  return csv;
}

/// Writes a trace directory from name -> contents, with overridable files.
fs::path write_trace_dir(const std::string& tag,
                         const std::map<std::string, std::string>& overrides) {
  const fs::path dir = fs::temp_directory_path() / ("headroom_tt_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::map<std::string, std::string> files = {
      {"manifest.ini", kManifest},
      {"scenario.scn", kScenario},
      {"server_day_cpu.csv", kServerDays},
      {"pool_0_0.csv", make_pool_csv()},
  };
  for (const auto& [name, contents] : overrides) files[name] = contents;
  for (const auto& [name, contents] : files) {
    if (contents == "<absent>") continue;
    std::ofstream out(dir / name, std::ios::binary);
    out << contents;
  }
  return dir;
}

TEST(TraceLoad, HandCraftedTraceReplays) {
  const fs::path dir = write_trace_dir("ok", {});
  const TraceReplayResult replayed = replay_trace(dir.string());
  ASSERT_TRUE(replayed.ok()) << replayed.error;
  // steps = model only: no simulator-derived metrics beyond the
  // environment block, but the summary machinery must still run.
  EXPECT_EQ(replayed.result.spec.name, "trace_test");
  EXPECT_EQ(replayed.result.metrics.at("total_servers"), 4.0);
  EXPECT_EQ(replayed.result.metrics.count("model_equivalent"), 1u);
  fs::remove_all(dir);
}

TEST(TraceLoad, MissingDirectoryAndMissingFilesAreDiagnosed) {
  const TraceReplayResult none = replay_trace("/nonexistent/trace/dir");
  ASSERT_FALSE(none.ok());
  EXPECT_NE(none.error.find("cannot open trace manifest"), std::string::npos)
      << none.error;

  const fs::path no_pool = write_trace_dir("nopool", {{"pool_0_0.csv",
                                                       "<absent>"}});
  const TraceReplayResult missing_pool = replay_trace(no_pool.string());
  ASSERT_FALSE(missing_pool.ok());
  EXPECT_NE(missing_pool.error.find("cannot open pool trace"),
            std::string::npos)
      << missing_pool.error;
  fs::remove_all(no_pool);

  const fs::path no_days =
      write_trace_dir("nodays", {{"server_day_cpu.csv", "<absent>"}});
  const TraceReplayResult missing_days = replay_trace(no_days.string());
  ASSERT_FALSE(missing_days.ok());
  EXPECT_NE(missing_days.error.find("cannot open server-day trace"),
            std::string::npos)
      << missing_days.error;
  fs::remove_all(no_days);
}

TEST(TraceLoad, ManifestDiagnosticsCarryFileAndLine) {
  const struct {
    const char* tag;
    const char* manifest;
    const char* expected;  // substring of the error
  } cases[] = {
      {"vers", "version = 99\n", "unsupported trace format version '99'"},
      {"novers", "scenario = s\n", "missing 'version' key"},
      {"junk", "version = 1\nwhat is this\n",
       "manifest.ini:2: expected 'key = value'"},
      {"badkey", "version = 1\nfrobnicate = 3\n",
       "manifest.ini:2: unknown manifest key 'frobnicate'"},
      {"badpool", "version = 1\npool = 0 zero file.csv\n",
       "bad pool entry '0 zero file.csv'"},
      {"badwin", "version = 1\nwindow_seconds = -5\n",
       "bad window_seconds '-5'"},
      {"noscn",
       "version = 1\nwindow_seconds = 120\nhorizon_seconds = 86400\n"
       "server_day_cpu = d.csv\npool = 0 0 p.csv\n",
       "missing 'scenario' key"},
      {"nopools",
       "version = 1\nscenario = scenario.scn\nwindow_seconds = 120\n"
       "horizon_seconds = 86400\nserver_day_cpu = server_day_cpu.csv\n",
       "no 'pool' entries"},
  };
  for (const auto& c : cases) {
    const fs::path dir = write_trace_dir(c.tag, {{"manifest.ini", c.manifest}});
    const TraceReplayResult replayed = replay_trace(dir.string());
    ASSERT_FALSE(replayed.ok()) << c.tag;
    EXPECT_NE(replayed.error.find(c.expected), std::string::npos)
        << c.tag << ": " << replayed.error;
    fs::remove_all(dir);
  }
}

TEST(TraceLoad, ManifestMustAgreeWithTheScenario) {
  const std::string bad_window =
      std::string(kManifest).replace(std::string(kManifest).find("120"), 3,
                                     "600");
  const fs::path dir1 = write_trace_dir("win", {{"manifest.ini", bad_window}});
  const TraceReplayResult w = replay_trace(dir1.string());
  ASSERT_FALSE(w.ok());
  EXPECT_NE(w.error.find("window_seconds disagrees with the scenario"),
            std::string::npos)
      << w.error;
  fs::remove_all(dir1);

  const std::string bad_horizon =
      "version = 1\nscenario = scenario.scn\nwindow_seconds = 120\n"
      "horizon_seconds = 172800\nserver_day_cpu = server_day_cpu.csv\n"
      "pool = 0 0 pool_0_0.csv\n";
  const fs::path dir2 =
      write_trace_dir("hor", {{"manifest.ini", bad_horizon}});
  const TraceReplayResult h = replay_trace(dir2.string());
  ASSERT_FALSE(h.ok());
  EXPECT_NE(h.error.find("horizon_seconds disagrees"), std::string::npos)
      << h.error;
  fs::remove_all(dir2);
}

TEST(TraceLoad, RequiresTheTargetPool) {
  const std::string manifest =
      "version = 1\nscenario = scenario.scn\nwindow_seconds = 120\n"
      "horizon_seconds = 86400\nserver_day_cpu = server_day_cpu.csv\n"
      "pool = 1 0 pool_0_0.csv\n";
  const fs::path dir = write_trace_dir("notarget", {{"manifest.ini", manifest}});
  const TraceReplayResult replayed = replay_trace(dir.string());
  ASSERT_FALSE(replayed.ok());
  EXPECT_NE(replayed.error.find("no pool (0, 0)"), std::string::npos)
      << replayed.error;
  fs::remove_all(dir);
}

TEST(TraceLoad, ServerDayDiagnostics) {
  const struct {
    const char* tag;
    const char* contents;
    const char* expected;
  } cases[] = {
      {"hdr", "wrong,header\n", "server_day_cpu.csv:1: bad header"},
      {"fields",
       "datacenter,pool,server,day,p5,p25,p50,p75,p95,mean,min,max,count\n"
       "0,0,0\n",
       "server_day_cpu.csv:2: expected 13 fields, got 3"},
      {"key",
       "datacenter,pool,server,day,p5,p25,p50,p75,p95,mean,min,max,count\n"
       "x,0,0,0,1,2,3,4,5,3,1,5,10\n",
       "server_day_cpu.csv:2: bad row key"},
      {"value",
       "datacenter,pool,server,day,p5,p25,p50,p75,p95,mean,min,max,count\n"
       "0,0,0,0,nan,2,3,4,5,3,1,5,10\n",
       "server_day_cpu.csv:2: bad value 'nan'"},
      {"count",
       "datacenter,pool,server,day,p5,p25,p50,p75,p95,mean,min,max,count\n"
       "0,0,0,0,1,2,3,4,5,3,1,5,-1\n",
       "server_day_cpu.csv:2: bad count '-1'"},
  };
  for (const auto& c : cases) {
    const fs::path dir =
        write_trace_dir(c.tag, {{"server_day_cpu.csv", c.contents}});
    const TraceReplayResult replayed = replay_trace(dir.string());
    ASSERT_FALSE(replayed.ok()) << c.tag;
    EXPECT_NE(replayed.error.find(c.expected), std::string::npos)
        << c.tag << ": " << replayed.error;
    fs::remove_all(dir);
  }
}

/// What() of `fn`, or "" when it returns without throwing.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

std::string plan_error(const fs::path& dir) {
  return thrown_message([&] { (void)run_plan_on_trace(dir.string()); });
}

std::string follow_error(const fs::path& dir) {
  return thrown_message(
      [&] { (void)ServeRunner().follow(dir.string(), nullptr); });
}

TEST(TraceLoad, EverySubcommandReportsTheSameFirstDiagnostic) {
  // One row per directory-level defect (checks 1-5 of trace.h's order):
  // run --trace (replay_trace), plan --trace (run_plan_on_trace) and
  // serve --follow (ServeRunner::follow) must fail with the same message.
  const std::string bad_window =
      std::string(kManifest).replace(std::string(kManifest).find("120"), 3,
                                     "600");
  const std::string bad_horizon =
      std::string(kManifest).replace(std::string(kManifest).find("86400"), 5,
                                     "172800");
  const std::string no_target =
      std::string(kManifest).replace(std::string(kManifest).find("pool = 0"),
                                     8, "pool = 1");
  // fig6's two-defect shape: a non-target pool CSV and the server-day file
  // both missing. The server-day check (5) precedes the pool CSVs (6).
  const std::string two_pools =
      std::string(kManifest) + "pool = 1 0 pool_1_0.csv\n";
  const struct {
    const char* tag;
    std::map<std::string, std::string> files;
    const char* expected;  // substring of the shared diagnostic
  } cases[] = {
      {"same_nomanifest", {{"manifest.ini", "<absent>"}},
       "manifest.ini: cannot open trace manifest"},
      {"same_badline", {{"manifest.ini", "version = 1\nwhat is this\n"}},
       "manifest.ini:2: expected 'key = value'"},
      {"same_noscn", {{"scenario.scn", "<absent>"}},
       "scenario.scn: cannot open scenario file"},
      {"same_window", {{"manifest.ini", bad_window}},
       "window_seconds disagrees with the scenario"},
      {"same_horizon", {{"manifest.ini", bad_horizon}},
       "horizon_seconds disagrees with the scenario's days"},
      {"same_notarget", {{"manifest.ini", no_target}}, "no pool (0, 0)"},
      {"same_duppool",
       {{"manifest.ini", std::string(kManifest) + "pool = 0 0 pool_0_0.csv\n"}},
       "manifest.ini:7: pool (0, 0) is listed twice"},
      {"same_nodays", {{"server_day_cpu.csv", "<absent>"}},
       "server_day_cpu.csv: cannot open server-day trace"},
      {"same_badday",
       {{"server_day_cpu.csv",
         "datacenter,pool,server,day,p5,p25,p50,p75,p95,mean,min,max,count\n"
         "x,0,0,0,1,2,3,4,5,3,1,5,10\n"}},
       "server_day_cpu.csv:2: bad row key"},
      {"same_twodefects",
       {{"manifest.ini", two_pools}, {"server_day_cpu.csv", "<absent>"}},
       "server_day_cpu.csv: cannot open server-day trace"},
  };
  for (const auto& c : cases) {
    const fs::path dir = write_trace_dir(c.tag, c.files);
    const std::string replayed = replay_trace(dir.string()).error;
    EXPECT_NE(replayed.find(c.expected), std::string::npos)
        << c.tag << ": " << replayed;
    EXPECT_EQ(plan_error(dir), replayed) << c.tag;
    EXPECT_EQ(follow_error(dir), replayed) << c.tag;
    fs::remove_all(dir);
  }
}

TEST(TraceLoad, ReplayAndPlanReportThePoolCsvDefectAlike) {
  // Check 6 is batch-only: follow tails pool CSVs as they grow, so a
  // missing or malformed one is not a load error there.
  const struct {
    const char* tag;
    const char* contents;
    const char* expected;
  } cases[] = {
      {"pool_missing", "<absent>", "pool_0_0.csv: cannot open pool trace"},
      {"pool_badrow",
       "window_start,rps,cpu_pct_attributed,latency_p95_ms,active_servers\n"
       "0,100,40,20,4\n"
       "120,100,40\n",
       "pool_0_0.csv:3: expected 5 fields, got 3"},
  };
  for (const auto& c : cases) {
    const fs::path dir = write_trace_dir(c.tag, {{"pool_0_0.csv", c.contents}});
    const std::string replayed = replay_trace(dir.string()).error;
    EXPECT_NE(replayed.find(c.expected), std::string::npos)
        << c.tag << ": " << replayed;
    EXPECT_EQ(plan_error(dir), replayed) << c.tag;
    fs::remove_all(dir);
  }
}

TEST(TraceLoad, EmbeddedNulIsABadValue) {
  // strtoll/strtoull/strtod stop at a NUL; every trace parser must read
  // the field to its end, so these report the field instead of passing.
  using namespace std::string_literals;
  const struct {
    const char* tag;
    const char* file;
    std::string contents;
    std::string expected;
  } cases[] = {
      {"nul_pool_row", "pool_0_0.csv",
       "window_start,rps,cpu_pct_attributed,latency_p95_ms,active_servers\n"
       "0,100\0,40,20,4\n"s,
       "pool_0_0.csv:2: bad value '100\0' for column 'rps' (expected a "
       "finite number)"s},
      {"nul_manifest_window", "manifest.ini",
       std::string(kManifest).replace(std::string(kManifest).find("120"), 3,
                                      "120\0"s),
       "manifest.ini:3: bad window_seconds '120\0'"s},
      {"nul_manifest_pool", "manifest.ini",
       std::string(kManifest).replace(std::string(kManifest).find("0 0"), 3,
                                      "0\0 0"s),
       "manifest.ini:6: bad pool entry '0\0 0 pool_0_0.csv'"s},
  };
  for (const auto& c : cases) {
    const fs::path dir = write_trace_dir(c.tag, {{c.file, c.contents}});
    const std::string error = replay_trace(dir.string()).error;
    EXPECT_NE(error.find(c.expected), std::string::npos)
        << c.tag << ": " << error;
    fs::remove_all(dir);
  }
}

TEST(TraceLoad, PoolCsvHeaderDefectReadsAlikeInEveryLoader) {
  // A wrong schema is fatal even while tailing: replay, plan and follow
  // check a pool CSV's header with the same telemetry function, so each
  // reports the same `path:1:` diagnostic.
  const struct {
    const char* tag;
    const char* header;
    const char* expected;
  } cases[] = {
      {"hdr_first", "time,rps\n",
       "pool_0_0.csv:1: bad header: first column must be 'window_start', "
       "got 'time'"},
      {"hdr_nometric", "window_start\n",
       "pool_0_0.csv:1: bad header: no metric columns"},
      {"hdr_unknown", "window_start,rps,bogus\n",
       "pool_0_0.csv:1: unknown metric column 'bogus'"},
      {"hdr_dup", "window_start,rps,rps\n",
       "pool_0_0.csv:1: duplicate metric column 'rps'"},
  };
  for (const auto& c : cases) {
    const fs::path dir = write_trace_dir(c.tag, {{"pool_0_0.csv", c.header}});
    const std::string replayed = replay_trace(dir.string()).error;
    EXPECT_NE(replayed.find(c.expected), std::string::npos)
        << c.tag << ": " << replayed;
    EXPECT_EQ(plan_error(dir), replayed) << c.tag;
    EXPECT_EQ(follow_error(dir), replayed) << c.tag;
    fs::remove_all(dir);
  }
}

TEST(TraceLoad, TruncatedRecordingSaysWhereItEnds) {
  // A recording cut short inside its RSM phase: replay must name the time
  // and the end of the recording, not report a pending feed.
  ScenarioSpec spec;
  spec.name = "truncated";
  spec.days = 1;
  spec.servers = 8;
  spec.steps = step_bit(PipelineStep::kMeasure) |
               step_bit(PipelineStep::kOptimize);
  const fs::path dir = fs::temp_directory_path() / "headroom_tt_truncated";
  fs::remove_all(dir);
  const TraceExportResult exported = export_trace(spec, dir.string(), nullptr);
  ASSERT_TRUE(exported.ok()) << exported.error;

  // Keep the header, the observation day and 100 RSM windows.
  const fs::path pool = dir / "pool_0_0.csv";
  std::string kept;
  {
    std::ifstream in(pool, std::ios::binary);
    std::string line;
    for (int i = 0; i < 1 + 720 + 100 && std::getline(in, line); ++i) {
      kept += line + "\n";
    }
  }
  std::ofstream(pool, std::ios::binary) << kept;

  const std::string what =
      thrown_message([&] { (void)replay_trace(dir.string()); });
  EXPECT_NE(what.find("headroom replay: trace exhausted at t="),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("recording ends at t=" + std::to_string(820 * 120)),
            std::string::npos)
      << what;
  fs::remove_all(dir);
}

TEST(TraceRoundTrip, SurvivesAWindowThatDoesNotDivideTheHorizon) {
  // With window_seconds = 7000, one day is 12.34 windows: the recording's
  // RSM phase starts at the overshot boundary t = 13 * 7000, and each
  // day-long observation covers ceil(86400/7000) = 13 windows. Replay
  // must follow the same grid or it reads shifted windows (or falsely
  // reports the trace exhausted).
  ScenarioSpec spec;
  spec.name = "odd_window";
  spec.days = 1;
  spec.servers = 8;
  spec.window_seconds = 7000;
  spec.steps = step_bit(PipelineStep::kMeasure) |
               step_bit(PipelineStep::kOptimize);

  const fs::path dir = fs::temp_directory_path() / "headroom_tt_oddwin";
  fs::remove_all(dir);
  ScenarioRunResult recorded;
  const TraceExportResult exported =
      export_trace(spec, dir.string(), &recorded);
  ASSERT_TRUE(exported.ok()) << exported.error;

  const TraceReplayResult replayed = replay_trace(dir.string());
  ASSERT_TRUE(replayed.ok()) << replayed.error;
  EXPECT_EQ(format_summary(replayed.result), format_summary(recorded));
  fs::remove_all(dir);
}

TEST(TraceExport, ReportsUnwritableDirectory) {
  ScenarioSpec spec;
  spec.name = "t";
  spec.days = 1;
  spec.servers = 4;
  spec.steps = step_bit(PipelineStep::kModel);
  const TraceExportResult exported =
      export_trace(spec, "/proc/headroom_cannot_write_here", nullptr);
  ASSERT_FALSE(exported.ok());
  EXPECT_NE(exported.error.find("cannot create trace directory"),
            std::string::npos)
      << exported.error;
}

}  // namespace
}  // namespace headroom::scenario
