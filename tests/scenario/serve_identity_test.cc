// Continuous-mode bit-identity pins.
//
// The contract the serve refactor must keep: a scenario streamed through
// `headroom serve` — windows arriving one at a time, pipeline stages
// advancing incrementally, rolling retention evicting consumed history —
// produces the identical final machine summary to the batch run, byte for
// byte, at any thread count. The batch summaries are already pinned in
// tests/scenario/golden/, so serving is compared against those same files.
//
// Follow mode gets the same treatment against a recorded trace directory:
// a complete recording, a recording growing under the reader, and a feed
// that dies mid-experiment.
//
// The per-window report lines, which carry each pool's rolling plan, are
// pinned by line count and digest in golden/serve/reports.digest.
#include "scenario/serve.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "scenario/scenario_parser.h"
#include "scenario/trace.h"

#ifndef HEADROOM_SCENARIO_DIR
#error "HEADROOM_SCENARIO_DIR must point at examples/scenarios"
#endif
#ifndef HEADROOM_GOLDEN_DIR
#error "HEADROOM_GOLDEN_DIR must point at tests/scenario/golden"
#endif

namespace headroom::scenario {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> scenario_stems() {
  std::vector<std::string> stems;
  for (const auto& entry : fs::directory_iterator(HEADROOM_SCENARIO_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".scn") {
      // The 100x-scale smoke has no batch golden (it is budgeted, not
      // pinned — see scenario_golden_test.cc) and would serve ~470k
      // servers twice here; it runs as a Release-only cli smoke instead.
      if (entry.path().stem() == "standard_fleet_x100") continue;
      stems.push_back(entry.path().stem().string());
    }
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class ServeIdentity : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeIdentity, ServedSummaryMatchesTheBatchGoldenAtAnyThreadCount) {
  const fs::path scenario_path =
      fs::path(HEADROOM_SCENARIO_DIR) / (GetParam() + ".scn");
  ParseResult parsed = load_scenario_file(scenario_path.string());
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  const fs::path golden_path =
      fs::path(HEADROOM_GOLDEN_DIR) / (GetParam() + ".golden");
  ASSERT_TRUE(fs::exists(golden_path))
      << "no golden pin for " << GetParam()
      << " (the batch golden test creates these)";
  const std::string golden = read_file(golden_path);

  const ServeRunner runner;
  const ServeResult serial = runner.serve(parsed.spec, {});
  EXPECT_EQ(serial.summary, golden)
      << "streaming the pipeline window-by-window changed the summary";
  EXPECT_TRUE(serial.result.assertions_pass);
  EXPECT_GT(serial.windows, 0u);
  EXPECT_GT(serial.reports, 0u);

  ScenarioSpec threaded = parsed.spec;
  threaded.threads = 4;
  const ServeResult parallel = runner.serve(threaded, {});
  EXPECT_EQ(parallel.summary, golden)
      << "served summary depends on the stepping thread count";
}

INSTANTIATE_TEST_SUITE_P(Library, ServeIdentity,
                         ::testing::ValuesIn(scenario_stems()));

TEST(ServeRetention, ExperimentPhaseEvictsConsumedHistory) {
  // fig6 runs measure+optimize over 2 observation days + 5 RSM days with
  // the default 2-day retention: most of the feed must have been evicted
  // by completion, with the resident set bounded by the retention window.
  ParseResult parsed = load_scenario_file(
      (fs::path(HEADROOM_SCENARIO_DIR) / "fig6_flash_crowd.scn").string());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  // The counts are pinned exactly: eviction that drops a sample too many
  // or too few shifts them, however the store lays its columns out.
  const ServeResult served = ServeRunner().serve(parsed.spec, {});
  EXPECT_EQ(served.resident_samples, 79255u);
  EXPECT_EQ(served.evicted_samples, 197945u);
}

// --- Per-window report lines ------------------------------------------------

/// A serve run reduced to what the pins record: the report lines' count
/// and the 64-bit FNV-1a digest of the bytes `serve --out` writes to
/// windows.log (each line followed by '\n'), plus the store's closing
/// resident and evicted sample counts.
struct ServeDigest {
  std::string reports;
  std::size_t resident_samples = 0;
  std::size_t evicted_samples = 0;
};

ServeDigest serve_digest(const ScenarioSpec& spec, const ServeOptions& opt) {
  std::size_t lines = 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto fold = [&hash](char c) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  };
  const EmitFn emit = [&](const std::string& line) {
    ++lines;
    for (const char c : line) fold(c);
    fold('\n');
  };
  const ServeResult served = ServeRunner(opt).serve(spec, emit);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(hash));
  return {spec.name + (opt.harden ? " harden" : " plain") +
              " lines=" + std::to_string(lines) + " fnv1a64=" + digest + "\n",
          served.resident_samples, served.evicted_samples};
}

std::string serve_report_digest(const ScenarioSpec& spec, bool harden) {
  ServeOptions opt;
  opt.harden = harden;
  return serve_digest(spec, opt).reports;
}

TEST(ServeReports, WindowLinesMatchThePinAtAnyThreadCount) {
  // Every report line carries the pool's rolling plan (`plan=`), so this
  // pins the rolling planner's output window by window — the summaries
  // above only pin where the pipeline ended up.
  std::string pin;
  for (const char* stem :
       {"reduction_mid_run", "fig6_flash_crowd", "hot_cool_fleet"}) {
    ParseResult parsed = load_scenario_file(
        (fs::path(HEADROOM_SCENARIO_DIR) / (std::string(stem) + ".scn"))
            .string());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    for (const bool harden : {false, true}) {
      const std::string serial = serve_report_digest(parsed.spec, harden);
      ScenarioSpec threaded = parsed.spec;
      threaded.threads = 4;
      EXPECT_EQ(serve_report_digest(threaded, harden), serial)
          << "report lines depend on the stepping thread count";
      pin += serial;
    }
  }

  const fs::path pin_path =
      fs::path(HEADROOM_GOLDEN_DIR) / "serve" / "reports.digest";
  if (std::getenv("HEADROOM_UPDATE_GOLDENS") != nullptr) {
    fs::create_directories(pin_path.parent_path());
    std::ofstream out(pin_path, std::ios::binary);
    out << pin;
    ASSERT_TRUE(out.good()) << "failed to write " << pin_path;
    GTEST_SKIP() << "updated " << pin_path;
  }
  ASSERT_TRUE(fs::exists(pin_path))
      << "no report pin; run with HEADROOM_UPDATE_GOLDENS=1 to create it";
  EXPECT_EQ(pin, read_file(pin_path))
      << "report lines drifted from " << pin_path
      << "; if intentional, regenerate with HEADROOM_UPDATE_GOLDENS=1";
}

TEST(ServeRetention, LongHardenedServeTurnsEverySeriesOver) {
  // hot_cool_fleet observes one day, then serves five more under the
  // default 2-day retention, hardened: both the fleet store and the
  // delivered store evict every series through more than one full
  // retention span. The closing counts and every report line (each
  // carries the pool's rolling plan) are pinned, serial and threaded.
  ParseResult parsed = load_scenario_file(
      (fs::path(HEADROOM_SCENARIO_DIR) / "hot_cool_fleet.scn").string());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ServeOptions opt;
  opt.harden = true;
  opt.extra_days = 5;
  const ServeDigest serial = serve_digest(parsed.spec, opt);
  EXPECT_EQ(serial.reports,
            "hot_cool_fleet harden lines=116643 fnv1a64=777bdb4065befd6e\n");
  EXPECT_EQ(serial.resident_samples, 427977u);
  EXPECT_EQ(serial.evicted_samples, 855063u);
  EXPECT_GT(serial.evicted_samples, serial.resident_samples);

  ScenarioSpec threaded = parsed.spec;
  threaded.threads = 4;
  const ServeDigest parallel = serve_digest(threaded, opt);
  EXPECT_EQ(parallel.reports, serial.reports);
  EXPECT_EQ(parallel.resident_samples, serial.resident_samples);
  EXPECT_EQ(parallel.evicted_samples, serial.evicted_samples);
}

// --- Follow mode over a recorded trace --------------------------------------

/// One shared recording for every follow test: exporting runs the full
/// fleet simulation, so it happens once per suite.
class FollowTrace : public ::testing::Test {
 protected:
  /// Per-process scratch path: ctest runs each TEST_F as its own process,
  /// so a fixed name would race between concurrently running tests.
  static fs::path scratch_dir(const std::string& stem) {
    return fs::temp_directory_path() /
           (stem + "_" + std::to_string(::getpid()));
  }

  static void SetUpTestSuite() {
    dir_ = new fs::path(scratch_dir("headroom_follow_trace"));
    fs::remove_all(*dir_);
    ParseResult parsed = load_scenario_file(
        (fs::path(HEADROOM_SCENARIO_DIR) / "fig6_flash_crowd.scn").string());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ScenarioRunResult result;
    const TraceExportResult exported =
        export_trace(parsed.spec, dir_->string(), &result);
    ASSERT_TRUE(exported.ok()) << exported.error;
    summary_ = new std::string(read_file(*dir_ / "summary.txt"));
    ASSERT_FALSE(summary_->empty());
  }
  static void TearDownTestSuite() {
    fs::remove_all(*dir_);
    delete dir_;
    delete summary_;
    dir_ = nullptr;
    summary_ = nullptr;
  }

  static ServeOptions fast_poll() {
    ServeOptions opt;
    opt.poll_ms = 1;
    return opt;
  }

  static fs::path* dir_;
  static std::string* summary_;
};

fs::path* FollowTrace::dir_ = nullptr;
std::string* FollowTrace::summary_ = nullptr;

TEST_F(FollowTrace, CompleteRecordingReproducesTheRecordedSummary) {
  const ServeResult followed =
      ServeRunner(fast_poll()).follow(dir_->string(), {});
  EXPECT_EQ(followed.summary, *summary_)
      << "following a finished recording must reproduce its summary";
  EXPECT_TRUE(followed.result.assertions_pass);
  // The eviction floor released the observation phase but protected the
  // experiment windows the session had not consumed yet.
  EXPECT_GT(followed.evicted_samples, 0u);
}

TEST_F(FollowTrace, RecordingGrowingUnderTheReaderReproducesTheSummary) {
  const fs::path grow_dir = scratch_dir("headroom_follow_grow");
  fs::remove_all(grow_dir);
  fs::create_directories(grow_dir);
  for (const char* name :
       {"scenario.scn", "manifest.ini", "server_day_cpu.csv"}) {
    fs::copy_file(*dir_ / name, grow_dir / name);
  }
  // Every pool CSV split into joint chunks, appended while follow() runs.
  std::vector<fs::path> pool_files;
  std::vector<std::vector<std::string>> pool_lines;
  for (const auto& entry : fs::directory_iterator(*dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("pool_", 0) != 0) continue;
    pool_files.push_back(grow_dir / name);
    std::vector<std::string> lines;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    pool_lines.push_back(std::move(lines));
  }
  ASSERT_FALSE(pool_files.empty());

  std::thread writer([&] {
    const std::size_t total = pool_lines[0].size();
    std::size_t written = 0;
    while (written < total) {
      const std::size_t next = std::min(written + 997, total);
      for (std::size_t p = 0; p < pool_files.size(); ++p) {
        std::ofstream out(pool_files[p], std::ios::app | std::ios::binary);
        for (std::size_t i = written; i < next; ++i) {
          out << pool_lines[p][i] << '\n';
        }
      }
      written = next;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  ServeOptions opt = fast_poll();
  opt.max_idle_polls = 200000;  // the writer paces the feed, not the poll
  ServeResult followed;
  try {
    followed = ServeRunner(opt).follow(grow_dir.string(), {});
  } catch (...) {
    writer.join();
    fs::remove_all(grow_dir);
    throw;
  }
  writer.join();
  fs::remove_all(grow_dir);
  EXPECT_EQ(followed.summary, *summary_)
      << "a trace growing under the reader must replay like a finished one";
}

TEST_F(FollowTrace, FeedDyingMidExperimentFailsSafeInsteadOfHanging) {
  const fs::path dead_dir = scratch_dir("headroom_follow_dead");
  fs::remove_all(dead_dir);
  fs::create_directories(dead_dir);
  for (const char* name :
       {"scenario.scn", "manifest.ini", "server_day_cpu.csv"}) {
    fs::copy_file(*dir_ / name, dead_dir / name);
  }
  // Three of the seven recorded days: past the observation horizon, well
  // short of what the RSM experiment needs.
  const std::size_t keep = 1 + 3 * 720;  // header + three days of windows
  for (const auto& entry : fs::directory_iterator(*dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("pool_", 0) != 0) continue;
    std::ifstream in(entry.path());
    std::ofstream out(dead_dir / name, std::ios::binary);
    std::string line;
    for (std::size_t i = 0; i < keep && std::getline(in, line); ++i) {
      out << line << '\n';
    }
  }

  ServeOptions opt = fast_poll();
  opt.max_idle_polls = 5;
  // The watchdog used to throw here; now it fails safe: every pool is
  // degraded to FAILSAFE, the pending reduction experiment is aborted back
  // to its starting serving count, and follow() returns a clean result
  // flagged degraded instead of hanging or crashing.
  const ServeResult followed = ServeRunner(opt).follow(dead_dir.string(), {});
  EXPECT_TRUE(followed.health_active);
  EXPECT_TRUE(followed.degraded);
  EXPECT_NE(followed.health_report.find("mode=failsafe"), std::string::npos)
      << followed.health_report;
  EXPECT_NE(followed.health_report.find("feed watchdog"), std::string::npos)
      << followed.health_report;
  EXPECT_NE(followed.summary.find("metric rsm_failsafe = 1"),
            std::string::npos)
      << followed.summary;
  // Never shrink on stale data: the abort restored the starting count.
  EXPECT_EQ(followed.result.rsm.recommended_serving,
            followed.result.rsm.starting_serving);
  fs::remove_all(dead_dir);
}

TEST_F(FollowTrace, MalformedFeedSurfacesTheTraceDiagnostic) {
  const fs::path bad_dir = scratch_dir("headroom_follow_bad");
  fs::remove_all(bad_dir);
  fs::create_directories(bad_dir);
  try {
    (void)ServeRunner(fast_poll()).follow(bad_dir.string(), {});
    FAIL() << "expected a trace diagnostic";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("manifest"), std::string::npos)
        << e.what();
  }
  fs::remove_all(bad_dir);
}

}  // namespace
}  // namespace headroom::scenario
