// headroom CLI argument parsing.
//
// Pulled out of main.cc so the parsing rules are unit-testable. One table
// in args.cc lists every flag: its name, the commands that accept it, how
// its value parses, and the Options field it sets; one loop walks argv
// against it, then each command's cross-flag rules run once. Flags that
// take a value consume exactly one following argument, flags that don't
// (e.g. --help, --quiet) consume nothing — the historical bug where the
// loop unconditionally skipped the argument after every flag cannot
// reappear without failing tests/cli/args_test.cc. A flag a command does
// not accept is an error naming both, never silently ignored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace headroom::cli {

enum class Command {
  kPipeline,       ///< Legacy flag mode: full pipeline from flags.
  kRunScenario,    ///< `headroom run --scenario FILE | --trace DIR`.
  kListScenarios,  ///< `headroom list-scenarios [--dir DIR]`.
  kExportTrace,    ///< `headroom export-trace --scenario FILE --out DIR`.
  kServe,          ///< `headroom serve --scenario FILE | --trace DIR --follow`.
  kBakeoff,        ///< `headroom bakeoff [--dir DIR | --scenario FILE]`.
  kPlan,           ///< `headroom plan --scenario FILE | --trace DIR`.
};

struct Options {
  Command command = Command::kPipeline;

  // --- Pipeline (legacy flag) mode ----------------------------------------
  std::size_t fleet = 64;     ///< Servers per pool.
  std::int64_t days = 3;      ///< Observation days before optimizing.
  std::size_t pools = 1;      ///< Datacenters hosting the pool.
  std::uint64_t seed = 5;     ///< Simulation seed.
  std::string service = "D";  ///< Catalog service name ("A".."G").
  std::size_t threads = 0;    ///< Stepping threads; 0 = hardware concurrency.
  bool threads_set = false;   ///< Whether --threads was given (run-mode
                              ///< scenarios keep their own value otherwise).

  // --- Scenario modes -----------------------------------------------------
  std::string scenario_path;  ///< --scenario FILE.
  std::string scenario_dir = "examples/scenarios";  ///< --dir DIR.
  std::string trace_dir;      ///< run/serve/plan: --trace DIR.
  /// --out DIR: the trace (export-trace), window log and summary (serve),
  /// *.frontier files (bakeoff) or *.plan files (plan).
  std::string out_dir;
  bool quiet = false;         ///< Print only the machine-readable output.
  bool dir_set = false;       ///< --dir was given explicitly.

  // --- Plan mode (capacity what-ifs) ---------------------------------------
  std::int64_t horizon_days = 90;  ///< plan: forecast horizon.
  double growth = 0.0;          ///< plan: --growth X (0 = default sweep).
  std::string failover;         ///< plan: --failover P (empty = all three).

  // --- Serve mode (continuous pipeline) -----------------------------------
  bool follow = false;          ///< serve: --trace requires --follow.
  std::int64_t extra_days = 0;  ///< serve: steady-state days after the RSM.
  std::int64_t retention_days = 2;  ///< serve: rolling store retention
                                    ///< (0 = keep full history).
  bool reuse_baseline = false;  ///< serve: seed RSM from observation phase.
  std::int64_t poll_ms = 20;    ///< serve --follow: idle poll sleep.
  std::int64_t max_idle_polls = 250;  ///< serve --follow: idle budget.
  bool harden = false;          ///< serve: run the health layer faultless.
  std::int64_t heal_budget_seconds = 900;  ///< serve: gap heal budget.
  std::int64_t staleness_budget_seconds = 14400;  ///< serve: failsafe cutoff.
};

struct ParseOutcome {
  bool ok = false;         ///< Options are valid; proceed with the command.
  bool show_help = false;  ///< --help/-h given: print usage(), exit 0.
  std::string error;       ///< Set when !ok && !show_help.
  Options options;
};

/// Parses argv[1..argc-1] (program name excluded).
[[nodiscard]] ParseOutcome parse_args(const std::vector<std::string>& args);

[[nodiscard]] std::string usage();

}  // namespace headroom::cli
