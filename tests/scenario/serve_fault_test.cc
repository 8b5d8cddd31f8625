// Degraded-input survival pins for `headroom serve`.
//
// Three contracts, each enforced here:
//
//  1. Every shipped fault scenario serves to the SAME machine summary as
//     its fault-free batch golden — injected faults are either healed,
//     quarantined, or summary-preserving by construction — and its health
//     report is deterministic and thread-count invariant, pinned
//     byte-for-byte in tests/scenario/golden/health/<name>.health
//     (regenerate with HEADROOM_UPDATE_GOLDENS=1).
//
//  2. A pool dark past the staleness budget mid-experiment fails safe:
//     the RSM reduction experiment is aborted back to its starting
//     serving count (never shrink on stale data) and the summary carries
//     rsm_failsafe = 1.
//
//  3. Follow mode survives damaged trace CSVs: duplicated or reordered
//     window_start rows (previously fatal in the tailer — the regression
//     this PR fixes), garbage rows, NaN values, and skewed timestamps are
//     quarantined and counted, never crashes.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/fault.h"
#include "scenario/scenario_parser.h"
#include "scenario/serve.h"
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

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ParseResult load_library_scenario(const std::string& stem) {
  return load_scenario_file(
      (fs::path(HEADROOM_SCENARIO_DIR) / (stem + ".scn")).string());
}

// --- 1. Shipped fault pack: summary identity + pinned health reports --------

class ServeFaultGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeFaultGolden, SummaryMatchesBatchGoldenAndHealthReportIsPinned) {
  ParseResult parsed = load_library_scenario(GetParam());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_FALSE(parsed.spec.faults.empty())
      << GetParam() << " must declare at least one [fault]";

  const fs::path golden_path =
      fs::path(HEADROOM_GOLDEN_DIR) / (GetParam() + ".golden");
  ASSERT_TRUE(fs::exists(golden_path))
      << "no batch golden for " << GetParam();
  const std::string golden = read_file(golden_path);

  const ServeRunner runner;
  const ServeResult serial = runner.serve(parsed.spec, {});
  // The faults damaged the delivered feed, yet the summary is the
  // fault-free batch summary: healed, quarantined, or summary-preserving.
  EXPECT_EQ(serial.summary, golden)
      << "injected faults leaked into the machine summary";
  EXPECT_TRUE(serial.result.assertions_pass);
  EXPECT_TRUE(serial.health_active);
  EXPECT_TRUE(serial.degraded);
  ASSERT_FALSE(serial.health_report.empty());

  // Thread-count invariance of both artifacts.
  ScenarioSpec threaded = parsed.spec;
  threaded.threads = 4;
  const ServeResult parallel = runner.serve(threaded, {});
  EXPECT_EQ(parallel.summary, golden);
  EXPECT_EQ(parallel.health_report, serial.health_report)
      << "health report depends on the stepping thread count";

  const fs::path health_path =
      fs::path(HEADROOM_GOLDEN_DIR) / "health" / (GetParam() + ".health");
  if (std::getenv("HEADROOM_UPDATE_GOLDENS") != nullptr) {
    fs::create_directories(health_path.parent_path());
    std::ofstream out(health_path, std::ios::binary);
    out << serial.health_report;
    ASSERT_TRUE(out.good()) << "failed to write " << health_path;
    GTEST_SKIP() << "updated " << health_path;
  }
  ASSERT_TRUE(fs::exists(health_path))
      << "no health pin for " << GetParam()
      << "; run with HEADROOM_UPDATE_GOLDENS=1 to create it";
  EXPECT_EQ(serial.health_report, read_file(health_path))
      << "health report drifted from " << health_path
      << "; if intentional, regenerate with HEADROOM_UPDATE_GOLDENS=1";
}

INSTANTIATE_TEST_SUITE_P(FaultPack, ServeFaultGolden,
                         ::testing::Values("fault_gap_heal",
                                           "fault_nan_burst",
                                           "fault_stalled_feed",
                                           "fault_clock_skew"));

// --- Hardened fault-free serve stays byte-identical and un-degraded ---------

TEST(ServeHardened, FaultFreeHardenedServeMatchesGoldenAndIsNotDegraded) {
  ParseResult parsed = load_library_scenario("reduction_mid_run");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const std::string golden = read_file(
      fs::path(HEADROOM_GOLDEN_DIR) / "reduction_mid_run.golden");

  ServeOptions opt;
  opt.harden = true;
  const ServeResult served = ServeRunner(opt).serve(parsed.spec, {});
  EXPECT_EQ(served.summary, golden)
      << "--harden with a clean feed changed the summary";
  EXPECT_TRUE(served.health_active);
  EXPECT_FALSE(served.degraded);
  EXPECT_NE(served.health_report.find("health degraded = 0"),
            std::string::npos)
      << served.health_report;
}

// --- 2. Staleness budget exhausted mid-experiment => failsafe abort ---------

TEST(ServeFailsafe, TargetPoolDarkPastStalenessBudgetAbortsTheExperiment) {
  ParseResult parsed = load_library_scenario("fault_stalled_feed");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  // Replace the benign stall with a permanent gap on the target pool
  // opening mid-experiment: no catch-up ever arrives, so the pool walks
  // HEALING -> STALE -> FAILSAFE and the reduction experiment must be
  // abandoned rather than acted on.
  parsed.spec.faults.clear();
  FaultSpec gap;
  gap.kind = FaultKind::kTelemetryGap;
  gap.datacenter = 0;
  gap.pool = 0;
  gap.start_hour = 52.0;
  gap.duration_hours = 10000.0;
  parsed.spec.faults.push_back(gap);

  const ServeResult served = ServeRunner().serve(parsed.spec, {});
  EXPECT_TRUE(served.health_active);
  EXPECT_TRUE(served.degraded);
  EXPECT_NE(served.health_report.find("mode=failsafe"), std::string::npos)
      << served.health_report;
  EXPECT_NE(served.summary.find("metric rsm_failsafe = 1"), std::string::npos)
      << served.summary;
  // Never shrink on stale data: the abort restored the starting count.
  EXPECT_EQ(served.result.rsm.recommended_serving,
            served.result.rsm.starting_serving);
}

// --- 3. Follow mode over damaged trace CSVs ---------------------------------

/// One shared recording (a 2-day measure-only scenario, so exporting is
/// cheap) that each test damages into its own copy.
class DamagedTrace : public ::testing::Test {
 protected:
  static fs::path scratch_dir(const std::string& stem) {
    return fs::temp_directory_path() /
           (stem + "_" + std::to_string(::getpid()));
  }

  static void SetUpTestSuite() {
    dir_ = new fs::path(scratch_dir("headroom_damaged_trace"));
    fs::remove_all(*dir_);
    ParseResult parsed = load_library_scenario("reduction_mid_run");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ScenarioRunResult result;
    const TraceExportResult exported =
        export_trace(parsed.spec, dir_->string(), &result);
    ASSERT_TRUE(exported.ok()) << exported.error;
    summary_ = new std::string(read_file(*dir_ / "summary.txt"));
  }
  static void TearDownTestSuite() {
    fs::remove_all(*dir_);
    delete dir_;
    delete summary_;
    dir_ = nullptr;
    summary_ = nullptr;
  }

  /// Copies the pristine recording into a fresh scratch directory.
  static fs::path clone_trace(const std::string& stem) {
    const fs::path dst = scratch_dir(stem);
    fs::remove_all(dst);
    fs::copy(*dir_, dst);
    return dst;
  }

  static ServeOptions fast_poll() {
    ServeOptions opt;
    opt.poll_ms = 1;
    return opt;
  }

  static fs::path* dir_;
  static std::string* summary_;
};

fs::path* DamagedTrace::dir_ = nullptr;
std::string* DamagedTrace::summary_ = nullptr;

/// The satellite bugfix regression: a writer that re-emits an
/// already-written window (log rotation replay, double flush) used to be
/// fatal in the tailer — `trace csv: window_start moved backwards`. The
/// hardened tailer quarantines the duplicates and the follow completes
/// with the summary unchanged, since the first delivery of each window
/// already carried the true values.
TEST_F(DamagedTrace, DuplicatedWindowRowsAreQuarantinedNotFatal) {
  const fs::path dir = clone_trace("headroom_follow_duprows");
  // Duplicate a mid-file block of rows in every pool CSV: rows for
  // windows the reader has already consumed arrive again.
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("pool_", 0) != 0) continue;
    std::vector<std::string> lines;
    std::ifstream in(entry.path());
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    in.close();
    ASSERT_GT(lines.size(), 200u);
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      out << lines[i] << '\n';
      if (i == 150) {  // Re-emit the previous 50 rows.
        for (std::size_t j = 100; j <= 150; ++j) out << lines[j] << '\n';
      }
    }
  }
  const ServeResult followed =
      ServeRunner(fast_poll()).follow(dir.string(), {});
  EXPECT_EQ(followed.summary, *summary_)
      << "duplicated rows must not change what the pipeline computed";
  EXPECT_TRUE(followed.health_active);
  EXPECT_TRUE(followed.degraded);
  EXPECT_NE(followed.health_report.find("quarantined_duplicate="),
            std::string::npos);
  EXPECT_EQ(followed.health_report.find("quarantined_duplicate=0"),
            std::string::npos)
      << followed.health_report;
  fs::remove_all(dir);
}

TEST_F(DamagedTrace, CorruptTraceCsvsSurviveAsQuarantineAndHealing) {
  const fs::path dir = clone_trace("headroom_follow_corrupt");
  // The injector's follow-mode twin damages the recorded CSVs in place:
  // NaN values, garbage rows, and skewed timestamps, all on the target
  // pool, all inside day 1 so healing has history to fill from.
  ParseResult parsed = load_library_scenario("reduction_mid_run");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const auto add = [&](FaultKind kind, double start_hour, double hours,
                       double skew = 0.0) {
    FaultSpec f;
    f.kind = kind;
    f.datacenter = 0;
    f.pool = 0;
    f.start_hour = start_hour;
    f.duration_hours = hours;
    f.skew_seconds = skew;
    parsed.spec.faults.push_back(f);
  };
  add(FaultKind::kNanBurst, 10.0, 0.1);
  add(FaultKind::kCorruptRow, 14.0, 0.1);
  add(FaultKind::kClockSkew, 18.0, 0.1, 30.0);
  const std::size_t damaged = corrupt_trace_csvs(dir.string(), parsed.spec);
  ASSERT_GT(damaged, 0u);

  // Survival, not identity: healed fills approximate the lost values, so
  // the summary may legitimately differ — but the follow must complete
  // cleanly with every damage class counted.
  const ServeResult followed =
      ServeRunner(fast_poll()).follow(dir.string(), {});
  EXPECT_TRUE(followed.health_active);
  EXPECT_TRUE(followed.degraded);
  const std::string& report = followed.health_report;
  EXPECT_EQ(report.find("quarantined_nan=0 "), std::string::npos) << report;
  EXPECT_EQ(report.find("malformed_rows=0 "), std::string::npos) << report;
  EXPECT_EQ(report.find("realigned=0 "), std::string::npos) << report;
  fs::remove_all(dir);
}

TEST_F(DamagedTrace, CorruptTraceCsvsReportsARewriteThatFails) {
  // The rewrite is checked after it is flushed: a write that fails throws
  // write_text_file's message instead of leaving a truncated CSV. A
  // file-size limit on this process fails the write after the open
  // succeeds. (A pool CSV linked to /dev/full would not do: the CSV is
  // read before it is rewritten, and reading /dev/full never ends.)
  const fs::path dir = clone_trace("headroom_corrupt_unwritable");
  ParseResult parsed = load_library_scenario("reduction_mid_run");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  FaultSpec gap;
  gap.kind = FaultKind::kTelemetryGap;
  gap.datacenter = 0;
  gap.pool = 0;
  gap.start_hour = 10.0;
  gap.duration_hours = 0.1;
  parsed.spec.faults.push_back(gap);

  constexpr rlim_t kCap = 4096;  // Far below the pool CSV's size.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  if (saved.rlim_cur != RLIM_INFINITY && saved.rlim_cur <= kCap) {
    GTEST_SKIP() << "file-size limit already below " << kCap << " bytes";
  }
  rlimit capped = saved;
  capped.rlim_cur = kCap;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  std::string message;
  try {
    (void)corrupt_trace_csvs(dir.string(), parsed.spec);
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_EQ(message,
            "cannot write '" + (dir / "pool_0_0.csv").string() + "'");
  fs::remove_all(dir);
}

TEST_F(DamagedTrace, StrictBatchReplayStillRejectsDamagedCsvs) {
  // The hardened path is serve --follow only: `run --trace` keeps its
  // strict contract and refuses a trace with duplicated window rows.
  const fs::path dir = clone_trace("headroom_replay_strict");
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("pool_", 0) != 0) continue;
    std::vector<std::string> lines;
    std::ifstream in(entry.path());
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    in.close();
    std::ofstream out(entry.path(),
                      std::ios::binary | std::ios::app);
    out << lines[100] << '\n';  // One replayed row at the tail.
  }
  const TraceReplayResult replay = replay_trace(dir.string());
  EXPECT_FALSE(replay.ok());
  EXPECT_NE(replay.error.find("window_start"), std::string::npos)
      << replay.error;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace headroom::scenario
