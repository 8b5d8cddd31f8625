#include "cli/args.h"

#include <cerrno>
#include <cstdlib>
#include <string_view>

namespace headroom::cli {

namespace {

[[nodiscard]] constexpr unsigned bit(Command command) noexcept {
  return 1u << static_cast<unsigned>(command);
}

constexpr unsigned kPipeline = bit(Command::kPipeline);
constexpr unsigned kRun = bit(Command::kRunScenario);
constexpr unsigned kList = bit(Command::kListScenarios);
constexpr unsigned kExport = bit(Command::kExportTrace);
constexpr unsigned kServe = bit(Command::kServe);
constexpr unsigned kBakeoff = bit(Command::kBakeoff);
constexpr unsigned kPlan = bit(Command::kPlan);
constexpr unsigned kScenarioCommands = kRun | kExport | kServe | kBakeoff |
                                       kPlan;

/// Subcommand names, as typed and as error messages name them.
struct CommandName {
  std::string_view name;
  Command command;
};
constexpr CommandName kCommands[] = {
    {"run", Command::kRunScenario},
    {"list-scenarios", Command::kListScenarios},
    {"export-trace", Command::kExportTrace},
    {"serve", Command::kServe},
    {"bakeoff", Command::kBakeoff},
    {"plan", Command::kPlan},
};

[[nodiscard]] std::string command_name(Command command) {
  for (const CommandName& entry : kCommands) {
    if (entry.command == command) return std::string(entry.name);
  }
  return "";
}

enum class ValueKind : std::uint8_t {
  kSwitch,    ///< No value; sets a bool.
  kText,      ///< Any string.
  kNonEmpty,  ///< A non-empty string ("FLAG needs a value" otherwise).
  kCount,     ///< Unsigned integer in [min, max].
  kPositive,  ///< Number in (0, 1e6].
  kFailover,  ///< One of sim::failover_policy_from_string's names.
};

/// A parsed flag value; `set` reads the member its kind fills.
struct Value {
  std::string text;
  std::uint64_t count = 0;
  double number = 0.0;

  /// `count` for the signed Options fields (every such range fits).
  [[nodiscard]] std::int64_t as_int() const noexcept {
    return static_cast<std::int64_t>(count);
  }
};

/// One command-line flag: its name, the commands that accept it, how its
/// value parses (`min`..`max` bound a kCount), and the Options field it
/// sets.
struct Flag {
  std::string_view name;
  unsigned commands;
  ValueKind kind;
  std::uint64_t min;
  std::uint64_t max;
  void (*set)(Options&, const Value&);
};

constexpr std::uint64_t kYearSeconds = 31536000;

constexpr Flag kFlags[] = {
    {"--threads", kPipeline | kScenarioCommands, ValueKind::kCount, 0, 4096,
     [](Options& o, const Value& v) {
       o.threads = v.count;
       o.threads_set = true;
     }},
    {"--fleet", kPipeline, ValueKind::kCount, 1, 1000000,
     [](Options& o, const Value& v) { o.fleet = v.count; }},
    {"--days", kPipeline, ValueKind::kCount, 1, 3650,
     [](Options& o, const Value& v) { o.days = v.as_int(); }},
    {"--pools", kPipeline, ValueKind::kCount, 1, 9,
     [](Options& o, const Value& v) { o.pools = v.count; }},
    {"--seed", kPipeline, ValueKind::kCount, 0, UINT64_MAX,
     [](Options& o, const Value& v) { o.seed = v.count; }},
    {"--service", kPipeline, ValueKind::kNonEmpty, 0, 0,
     [](Options& o, const Value& v) { o.service = v.text; }},
    {"--scenario", kScenarioCommands, ValueKind::kText, 0, 0,
     [](Options& o, const Value& v) { o.scenario_path = v.text; }},
    {"--trace", kRun | kServe | kPlan, ValueKind::kText, 0, 0,
     [](Options& o, const Value& v) { o.trace_dir = v.text; }},
    {"--dir", kList | kBakeoff | kPlan, ValueKind::kText, 0, 0,
     [](Options& o, const Value& v) {
       o.scenario_dir = v.text;
       o.dir_set = true;
     }},
    {"--out", kExport | kServe | kBakeoff | kPlan, ValueKind::kText, 0, 0,
     [](Options& o, const Value& v) { o.out_dir = v.text; }},
    {"--quiet", kScenarioCommands, ValueKind::kSwitch, 0, 0,
     [](Options& o, const Value&) { o.quiet = true; }},
    {"--follow", kServe, ValueKind::kSwitch, 0, 0,
     [](Options& o, const Value&) { o.follow = true; }},
    {"--extra-days", kServe, ValueKind::kCount, 0, 3650,
     [](Options& o, const Value& v) { o.extra_days = v.as_int(); }},
    {"--retention-days", kServe, ValueKind::kCount, 0, 3650,
     [](Options& o, const Value& v) { o.retention_days = v.as_int(); }},
    {"--reuse-baseline", kServe, ValueKind::kSwitch, 0, 0,
     [](Options& o, const Value&) { o.reuse_baseline = true; }},
    {"--poll-ms", kServe, ValueKind::kCount, 1, 60000,
     [](Options& o, const Value& v) { o.poll_ms = v.as_int(); }},
    {"--max-idle-polls", kServe, ValueKind::kCount, 1, 1000000,
     [](Options& o, const Value& v) { o.max_idle_polls = v.as_int(); }},
    {"--harden", kServe, ValueKind::kSwitch, 0, 0,
     [](Options& o, const Value&) { o.harden = true; }},
    {"--heal-budget", kServe, ValueKind::kCount, 0, kYearSeconds,
     [](Options& o, const Value& v) { o.heal_budget_seconds = v.as_int(); }},
    {"--staleness-budget", kServe, ValueKind::kCount, 0, kYearSeconds,
     [](Options& o, const Value& v) {
       o.staleness_budget_seconds = v.as_int();
     }},
    {"--horizon", kPlan, ValueKind::kCount, 1, 3650,
     [](Options& o, const Value& v) { o.horizon_days = v.as_int(); }},
    {"--growth", kPlan, ValueKind::kPositive, 0, 0,
     [](Options& o, const Value& v) { o.growth = v.number; }},
    {"--failover", kPlan, ValueKind::kFailover, 0, 0,
     [](Options& o, const Value& v) { o.failover = v.text; }},
};

bool parse_count(const std::string& flag, const std::string& text,
                 std::uint64_t minimum, std::uint64_t maximum,
                 std::uint64_t* out, std::string* error) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  // strtoull wraps negative input ("-1" -> UINT64_MAX) instead of failing,
  // so a leading '-' has to be rejected explicitly.
  if (text.empty() || text[0] == '-' || end == text.c_str() || *end != '\0' ||
      errno == ERANGE || value < minimum || value > maximum) {
    *error = "bad value for " + flag + ": '" + text + "' (expected " +
             std::to_string(minimum) + ".." + std::to_string(maximum) + ")";
    return false;
  }
  *out = value;
  return true;
}

bool parse_positive_double(const std::string& flag, const std::string& text,
                           double* out, std::string* error) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !(value > 0.0) || value > 1e6) {
    *error = "bad value for " + flag + ": '" + text +
             "' (expected a positive number)";
    return false;
  }
  *out = value;
  return true;
}

/// Parses `text` as `flag`'s value; returns "" or the error message.
[[nodiscard]] std::string parse_value(const Flag& flag, const std::string& text,
                                      Value* value) {
  const std::string name(flag.name);
  std::string error;
  value->text = text;
  switch (flag.kind) {
    case ValueKind::kSwitch:
    case ValueKind::kText:
      break;
    case ValueKind::kNonEmpty:
      if (text.empty()) error = name + " needs a value";
      break;
    case ValueKind::kCount:
      parse_count(name, text, flag.min, flag.max, &value->count, &error);
      break;
    case ValueKind::kPositive:
      parse_positive_double(name, text, &value->number, &error);
      break;
    case ValueKind::kFailover:
      // Mirrors sim::failover_policy_from_string; kept in sync by
      // tests/cli/args_test.cc so the parser stays link-free of sim.
      if (text != "nearest_survivor" && text != "latency_aware" &&
          text != "cost_aware") {
        error = "bad value for " + name + ": '" + text +
                "' (expected nearest_survivor, latency_aware, cost_aware)";
      }
      break;
  }
  return error;
}

/// The cross-flag rules each command checks once every flag is parsed;
/// returns "" or the first violated rule's message.
[[nodiscard]] std::string check_command(const Options& opt) {
  const std::string command = command_name(opt.command);
  const bool scenario = !opt.scenario_path.empty();
  const bool trace = !opt.trace_dir.empty();
  const auto both = [&](std::string_view a, std::string_view b) {
    return command + " takes " + std::string(a) + " or " + std::string(b) +
           ", not both";
  };
  // Silently ignoring a flag is exactly the bug class this parser was
  // rebuilt to prevent: replay never steps a simulator, so a thread count
  // cannot apply.
  const std::string threads_on_trace =
      "--threads does not apply to " + command + " --trace (" +
      (opt.command == Command::kServe ? "follow mode" : "replay") +
      " does not step a simulator)";
  switch (opt.command) {
    case Command::kRunScenario:
      if (!scenario && !trace) {
        return "run needs --scenario FILE or --trace DIR";
      }
      if (scenario && trace) return both("--scenario", "--trace");
      if (trace && opt.threads_set) return threads_on_trace;
      break;
    case Command::kExportTrace:
      if (!scenario) return "export-trace needs --scenario FILE";
      if (opt.out_dir.empty()) return "export-trace needs --out DIR";
      break;
    case Command::kServe:
      if (!scenario && !trace) {
        return "serve needs --scenario FILE or --trace DIR --follow";
      }
      if (scenario && trace) return both("--scenario", "--trace");
      if (trace && !opt.follow) {
        return "serve --trace requires --follow (a recorded trace is replayed "
               "with 'run --trace'; serve tails a growing one)";
      }
      if (opt.follow && !trace) return "--follow requires --trace DIR";
      if (trace && opt.threads_set) return threads_on_trace;
      if (trace && opt.extra_days != 0) {
        return "--extra-days does not apply to serve --trace (the feed decides "
               "when the stream ends)";
      }
      break;
    case Command::kBakeoff:
      if (scenario && opt.dir_set) return both("--scenario", "--dir");
      break;
    case Command::kPlan:
      if (scenario && trace) return both("--scenario", "--trace");
      if (trace && opt.dir_set) return both("--trace", "--dir");
      if (scenario && opt.dir_set) return both("--scenario", "--dir");
      if (trace && opt.threads_set) return threads_on_trace;
      break;
    case Command::kPipeline:
    case Command::kListScenarios:
      break;
  }
  return "";
}

}  // namespace

ParseOutcome parse_args(const std::vector<std::string>& args) {
  ParseOutcome outcome;
  Options& opt = outcome.options;

  std::size_t start = 0;
  if (!args.empty() && !args[0].empty() && args[0][0] != '-') {
    const CommandName* found = nullptr;
    for (const CommandName& entry : kCommands) {
      if (args[0] == entry.name) found = &entry;
    }
    if (found == nullptr) {
      outcome.error = "unknown command '" + args[0] +
                      "' (expected run, serve, bakeoff, plan, export-trace, "
                      "list-scenarios, or flags)";
      return outcome;
    }
    opt.command = found->command;
    start = 1;
  }

  for (std::size_t i = start; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      outcome.show_help = true;
      return outcome;
    }
    const Flag* flag = nullptr;
    for (const Flag& entry : kFlags) {
      if (arg == entry.name && (entry.commands & bit(opt.command)) != 0) {
        flag = &entry;
      }
    }
    if (flag == nullptr) {
      outcome.error = "unknown argument '" + arg + "'";
      if (opt.command != Command::kPipeline) {
        outcome.error += " for " + command_name(opt.command);
      }
      return outcome;
    }
    Value value;
    if (flag->kind != ValueKind::kSwitch) {
      // Only value-taking flags consume the next argument, so a switch can
      // never swallow its right-hand neighbour.
      if (i + 1 >= args.size()) {
        outcome.error = arg + " needs a value";
        return outcome;
      }
      outcome.error = parse_value(*flag, args[++i], &value);
      if (!outcome.error.empty()) return outcome;
    }
    flag->set(opt, value);
  }

  outcome.error = check_command(opt);
  outcome.ok = outcome.error.empty();
  return outcome;
}

std::string usage() {
  return
      "headroom — right-size a micro-service pool end to end\n"
      "\n"
      "  headroom [flags]                 run the four-step pipeline\n"
      "  headroom run --scenario FILE     run a declarative scenario file\n"
      "  headroom run --trace DIR         replay the pipeline from a\n"
      "                                   recorded trace directory\n"
      "  headroom export-trace --scenario FILE --out DIR\n"
      "                                   run a scenario and capture it as\n"
      "                                   a replayable trace directory\n"
      "  headroom serve --scenario FILE   continuous mode: stream the\n"
      "                                   pipeline window-by-window\n"
      "  headroom serve --trace DIR --follow\n"
      "                                   continuous mode over a growing\n"
      "                                   trace directory (tail the feed)\n"
      "  headroom bakeoff [--dir DIR | --scenario FILE]\n"
      "                                   optimizer bake-off: run every\n"
      "                                   capacity planner over the library\n"
      "                                   and emit cost-vs-SLO frontiers\n"
      "  headroom plan [--scenario FILE | --trace DIR | --dir DIR]\n"
      "                                   capacity planning: forecast every\n"
      "                                   pool's exhaustion date under what-if\n"
      "                                   sweeps (growth x failover x outages)\n"
      "  headroom list-scenarios [--dir DIR]\n"
      "                                   describe the scenario library\n"
      "\n"
      "pipeline flags:\n"
      "  --fleet N     servers per pool (default 64)\n"
      "  --days N      observation days before optimizing (default 3)\n"
      "  --pools N     datacenters hosting the pool (default 1)\n"
      "  --seed N      simulation seed (default 5)\n"
      "  --service S   micro-service catalog name A..G (default D)\n"
      "  --threads N   simulator stepping threads; results are identical\n"
      "                for any N (default 0 = hardware concurrency)\n"
      "\n"
      "run flags:\n"
      "  --scenario F  scenario file to execute\n"
      "  --trace D     trace directory to replay (export-trace output);\n"
      "                exactly one of --scenario/--trace is required\n"
      "  --threads N   override the scenario's stepping threads\n"
      "                (--scenario only; replay does not step)\n"
      "  --quiet       print only the machine-readable summary\n"
      "\n"
      "export-trace flags:\n"
      "  --scenario F  scenario file to run and record (required)\n"
      "  --out D       trace directory to write (required)\n"
      "  --threads N   override the scenario's stepping threads\n"
      "  --quiet       print only the machine-readable summary\n"
      "\n"
      "serve flags:\n"
      "  --scenario F        scenario to serve (simulated live feed)\n"
      "  --trace D --follow  tail a growing trace directory instead\n"
      "  --extra-days N      steady-state days after the RSM completes\n"
      "                      (--scenario only; default 0)\n"
      "  --retention-days N  rolling telemetry retention; 0 keeps full\n"
      "                      history (default 2)\n"
      "  --reuse-baseline    seed the RSM baseline from the observation\n"
      "                      phase instead of observing one\n"
      "  --out D             also write window reports and the final\n"
      "                      summary into directory D\n"
      "  --poll-ms N         follow: sleep between idle polls (default 20)\n"
      "  --max-idle-polls N  follow: idle polls before giving up (250)\n"
      "  --harden            run the degraded-input health layer even with\n"
      "                      no [fault] sections (follow always hardens)\n"
      "  --heal-budget S     gap seconds healed transparently on resume\n"
      "                      (default 900)\n"
      "  --staleness-budget S  dark seconds before FAILSAFE planning\n"
      "                      (default 14400)\n"
      "  --threads N         override stepping threads (--scenario only)\n"
      "  --quiet             suppress per-window report lines\n"
      "\n"
      "bakeoff flags:\n"
      "  --dir D       scenario directory to sweep (default\n"
      "                examples/scenarios); dead-band scenarios are skipped\n"
      "  --scenario F  bake off a single scenario file instead\n"
      "  --out D       also write one <scenario>.frontier file per scenario\n"
      "  --threads N   override stepping threads (frontiers are identical\n"
      "                for any N)\n"
      "  --quiet       print only the frontier blocks\n"
      "\n"
      "plan flags:\n"
      "  --scenario F  plan a single scenario file\n"
      "  --trace D     plan from a recorded trace directory (no simulator)\n"
      "  --dir D       sweep a scenario directory instead (default\n"
      "                examples/scenarios); dead-band scenarios are skipped\n"
      "  --horizon N   forecast horizon in days (default 90)\n"
      "  --growth X    restrict the growth sweep to {1, X}\n"
      "                (default sweep: 1, 1.5, 2)\n"
      "  --failover P  restrict the policy sweep to P: nearest_survivor,\n"
      "                latency_aware, or cost_aware (default: all three)\n"
      "  --out D       also write one <scenario>.plan report per scenario\n"
      "  --threads N   override stepping threads (reports are identical\n"
      "                for any N)\n"
      "  --quiet       print only the plan reports\n"
      "\n"
      "list-scenarios flags:\n"
      "  --dir D       scenario directory (default examples/scenarios)\n"
      "\n"
      "  --help        this text\n";
}

}  // namespace headroom::cli
