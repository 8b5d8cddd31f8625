#!/usr/bin/env python3
"""Headroom benchmark: one workload run, checked, summarised as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
harness (perfbench/harness.cc) and the library it links in Release mode
under .bench_build/. The script then generates the workload's inputs from
--seed into a scratch directory there, runs the harness in a fresh process,
checks the outputs, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
A traced run starts two processes: an untraced pass, then a traced pass
with the same inputs. The per-layer numbers come from the traced pass, and
its outputs must equal the untraced pass's. A failed output check counts
all of the run's operations as failed and exits 1. A missing source tree,
a build error or a crashed harness exits 2 and prints no result.
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 5
# Seconds the harness passes of one run may take after the build.
RUN_BUDGET_S = 165

# name -> unit. Kept in step with BENCHMARK.json (the self-tests check it).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "windows_per_s": "1/s",
    "server_windows_per_s": "1/s",
    "window_p50_ms": "ms",
    "window_p90_ms": "ms",
}
PER_LAYER = {
    "sim.step_ms_per_window": "ms",
    "sim.server_windows": "count",
    "telemetry.resident_samples": "count",
    "telemetry.evicted_samples": "count",
    "telemetry.format_double_ns": "ns",
    "telemetry.format_double_calls": "count",
    "telemetry.csv_bytes": "bytes",
    "telemetry.csv_read_ms": "ms",
    "telemetry.store_keys_us": "us",
    "query.window_value_ns": "ns",
    "query.window_value_calls": "count",
    "core.rolling_plan_us": "us",
    "core.rolling_rebuilds": "count",
    "core.health_us": "us",
    "core.measure_plan_ms": "ms",
    "core.forecast_pool_ms": "ms",
    "core.forecast_calls": "count",
    "scenario.format_plan_ms": "ms",
    "scenario.export_trace_ms": "ms",
    "export_s": "s",
    "plan_s": "s",
    "forecasts_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}
# Metrics of the benchmark design that no listed workload can drive from
# the layers' public functions, and why. They are left out, not
# approximated.
NOT_DRIVEN = {
    "sim.lane_speedup": "needs the x100_step workload, which is not in "
                        "the benchmark (its 2-lane wall time is not steady "
                        "on a shared host)",
    "telemetry.csv_write_ms": "write_pool_csv runs only inside export_trace; "
                              "its time stays in scenario.export_trace_ms",
    "ml.observe_ns": "TrendSeasonDecomposition runs only inside "
                     "CapacityForecaster::forecast_pool; its time stays in "
                     "core.forecast_pool_ms",
    "ml.predict_ns": "as ml.observe_ns",
}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# --- statistics -------------------------------------------------------------

def median(values):
    return percentile(values, 50.0)


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def steady_windows(op_t, op_ns, steady_from):
    """Per-window costs of the windows that start at or after steady_from.

    Serve's per-window cost climbs while the rolling store fills towards
    its retention bound; windows before the bound is reached are warm-up.
    """
    return [ns for t, ns in zip(op_t, op_ns) if t >= steady_from]


# --- inputs -----------------------------------------------------------------

HOT_COOL = """\
# Generated serve_steady input: the hot_cool_fleet library scenario.
[scenario]
name = hot_cool_fleet
description = Nine-region heterogeneous fleet, three services, one hot DC
seed = {seed}
days = 1
threads = 1
steps = measure

[fleet]
kind = standard
services = C,D,F
regional_peak_rps = 2000
heterogeneous = true

[datacenter 2]
demand_weight = 1.4

[assert]
expect = datacenters == 9

[assert]
expect = total_pools == 27

[assert]
expect = server_groups >= 1
"""

TRACE_PLAN = """\
# Generated trace_plan input: a two-day three-region fleet, recorded at
# ten-minute windows, whose timeline darkens two datacenters for two hours
# each.
[scenario]
name = trace_plan_fleet
description = Two-day multi-DC fleet with two DC outages
seed = {seed}
days = 2
window_seconds = 600
threads = 1
steps = measure

[fleet]
kind = multi_dc
datacenters = 3
service = D
servers = 128

[event]
kind = outage
datacenter = {dc_a}
start_hour = {hour_a}
duration_hours = 2

[event]
kind = outage
datacenter = {dc_b}
start_hour = {hour_b}
duration_hours = 2
"""

# Library scenario each generated spec equals at the default seed.
LIBRARY = {"serve_steady": "examples/scenarios/hot_cool_fleet.scn"}
GOLDEN = {"serve_steady": "tests/scenario/golden/hot_cool_fleet.golden"}


def generate(workload, seed, seconds, work):
    """Writes the workload's spec into `work` and returns harness flags.

    Only RNG seeds and event placement depend on the seed; fleet sizes and
    run lengths depend only on --seconds, so every seed costs the same.
    """
    spec = work / "spec.scn"
    if workload == "serve_steady":
        spec.write_text(HOT_COOL.format(seed=seed))
        # ~540 steady windows/s, split over the harness's three serve runs.
        flags = ["--timed-days", str(max(1, math.ceil(seconds / 4)))]
    elif workload == "trace_plan":
        rng = random.Random(seed)
        dc_a, dc_b = rng.sample(range(3), 2)
        spec.write_text(TRACE_PLAN.format(
            seed=seed, dc_a=dc_a, dc_b=dc_b,
            hour_a=rng.randint(6, 20), hour_b=rng.randint(28, 44)))
        # ~0.25 s rounds; from --seconds 25 (100 rounds) on, p90 has at
        # least ten rounds beyond it.
        flags = ["--rounds", str(max(10, 4 * seconds))]
    else:
        raise ValueError("unknown workload " + workload)
    if seed == DEFAULT_SEED and workload in LIBRARY:
        flags += ["--library", str(ROOT / LIBRARY[workload])]
    return ["--spec", str(spec)] + flags


# --- build and run ----------------------------------------------------------

def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_child(cmd, log, deadline):
    """Runs cmd with output to `log` until `deadline`; returns its exit code,
    or None after killing its whole process group on timeout."""
    with open(log, "a") as out:
        child = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                 start_new_session=True)
        try:
            return child.wait(timeout=max(1, deadline - time.time()))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return None


def build(build_dir, deadline):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no headroom source tree next to perfbench/ (run from a checkout)")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    log.write_text("")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4",
                  "--target", "perfbench_harness"])
    for cmd in steps:
        try:
            code = run_child(cmd, log, deadline)
        except OSError as e:
            fail("build failed: %s" % e)
        if code != 0:
            fail("build failed or timed out (see %s)" % log)
    return build_dir / "perfbench_harness"


def run_harness(binary, workload, flags, work, traced, deadline):
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--work", str(work),
           "--trace", "1" if traced else "0"] + flags
    log = work / "harness.log"
    code = run_child(cmd, log, deadline)
    if code != 0:
        fail("harness %s (see %s)" % ("timed out" if code is None else
                                      "failed", log))
    result = json.loads((work / "result.json").read_text())
    result["_work"] = str(work)
    return result


# --- output checks ----------------------------------------------------------

def read(work, name):
    return (Path(work) / name).read_text()


def drop_source_line(report):
    return "".join(line for line in report.splitlines(keepends=True)
                   if not line.startswith("source = "))


# Pool-scope metrics the simulator records per pool and window: a window a
# pool spends dark is healed as this many samples once the pool reports.
POOL_METRICS = 11
DAMAGE = ("quarantined_nan", "quarantined_implausible", "quarantined_duplicate",
          "quarantined_out_of_order", "realigned", "malformed_rows",
          "io_retries", "stale_windows")


def health_problems(report, dark_lines):
    """Problems in a hardened serve's health report on a fault-free feed.

    Nothing may be quarantined, realigned or stale, and no pool may end or
    ever pass through STALE or FAILSAFE. Healing is allowed only for
    windows the simulator itself left dark (a one-server pool restarting),
    which the serve reports as dark=1 lines.
    """
    problems = []
    healed = 0
    for line in report.splitlines():
        if line.startswith("health overall = ") and line != \
                "health overall = nominal":
            problems.append("overall health is not nominal")
        elif line.startswith("health pool "):
            fields = dict(f.split("=", 1) for f in line.split(" : ", 1)[1]
                          .split())
            if fields["mode"] != "nominal":
                problems.append(line)
            if any(fields[k] != "0" for k in DAMAGE):
                problems.append(line)
            healed += int(fields["healed"])
        elif line.startswith("health transition ") and \
                (" -> stale" in line or " -> failsafe" in line):
            problems.append(line)
    if healed > POOL_METRICS * dark_lines:
        problems.append("healed %d samples but only %d pool-windows were "
                        "dark" % (healed, dark_lines))
    return problems


def check_serve(res, golden):
    """Problems with one serve_steady pass (empty list = pass)."""
    problems = []
    work = res["_work"]
    batch = read(work, "batch_summary.txt")
    for i, rep in enumerate(res["reps"]):
        summary = read(work, "summary_%d.txt" % i)
        if summary != batch:
            problems.append("serve summary %d differs from the batch run" % i)
        if golden is not None and summary != golden:
            problems.append("serve summary %d differs from the golden" % i)
        problems += ["serve run %d: %s" % (i, p) for p in health_problems(
            read(work, "health_%d.txt" % i), rep["dark_lines"])]
        if rep != res["reps"][0]:
            problems.append("serve run %d output or counts differ from "
                            "run 0" % i)
    return problems


def check_trace_plan(res):
    problems = []
    report = read(res["_work"], "plan_report.txt")
    reference = read(res["_work"], "plan_reference.txt")
    if drop_source_line(report) != drop_source_line(reference):
        problems.append("trace plan report differs from run_plan(spec)")
    if not res["reports_agree"]:
        problems.append("trace plan reports differ between rounds")
    if len(set(res["csv_bytes"])) != 1:
        problems.append("exported CSV bytes differ between rounds")
    return problems


def check_pass(res, golden):
    problems = []
    if res.get("spec_is_library") is False:
        problems.append("generated spec is not the library scenario")
    if res["workload"] == "serve_steady":
        problems += check_serve(res, golden)
    else:
        problems += check_trace_plan(res)
    for i, counts in enumerate(res.get("rep_calls", [])):
        if counts != res["rep_calls"][0]:
            problems.append("span call counts of repetition %d differ" % i)
    return problems


def check_traced_equals_untraced(untraced, traced):
    """The traced pass must produce the untraced pass's checked output."""
    w = untraced["workload"]
    uw, tw = untraced["_work"], traced["_work"]
    problems = []
    if w == "serve_steady":
        if [r["report_digest"] for r in traced["reps"]] != \
                [r["report_digest"] for r in untraced["reps"]]:
            problems.append("traced serve report lines differ")
        for key in ("windows", "resident_samples", "evicted_samples"):
            if [r[key] for r in traced["reps"]] != \
                    [r[key] for r in untraced["reps"]]:
                problems.append("traced serve %s differ" % key)
        names = ["summary_%d.txt" % i for i in range(len(untraced["reps"]))]
    else:
        for key in ("forecasts", "csv_bytes"):
            if traced[key] != untraced[key]:
                problems.append("traced trace_plan %s differ" % key)
        names = ["plan_report.txt"]
    for name in names:
        if read(uw, name) != read(tw, name):
            problems.append("traced %s differs from the untraced one" % name)
    return problems


# --- metrics ----------------------------------------------------------------

def timed_ops(res):
    """The per-op costs (ns) a pass timed: steady serve windows or
    trace_plan export -> plan rounds."""
    if res["workload"] == "serve_steady":
        return steady_windows(res["op_t"], res["op_ns"], res["steady_from"])
    return res["op_ns"]


def end_to_end(res):
    ops = timed_ops(res)
    wall_s = sum(ops) / 1e9
    if res["workload"] == "trace_plan":
        # Each round records the trace's windows and plans over them:
        # per-window figures are the round's cost per recorded window.
        windows = res["windows"] * len(ops)
        per_window_ms = [ns / res["windows"] / 1e6 for ns in ops]
    else:
        windows = len(ops)
        per_window_ms = [ns / 1e6 for ns in ops]
    return {
        "setup_s": median(res["setup_ns"]) / 1e9,
        "wall_s": wall_s,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "windows_per_s": windows / wall_s,
        "server_windows_per_s": res["servers"] * windows / wall_s,
        "window_p50_ms": percentile(per_window_ms, 50),
        "window_p90_ms": percentile(per_window_ms, 90),
    }


def per_layer(untraced, traced):
    spans = traced["spans"]
    zero = {"spans": 0, "calls": 0, "total_ns": 0, "self_ns": 0}

    def s(name):
        return spans.get(name, zero)

    def per(name, field, count, scale):
        n = s(name)[count]
        return s(name)[field] / n / scale if n else 0.0

    m = {name: 0.0 for name in PER_LAYER}
    m["sim.step_ms_per_window"] = per("sim.run_until", "self_ns", "spans", 1e6)
    m["sim.server_windows"] = traced["servers"] * s("sim.run_until")["spans"]
    if traced["workload"] == "serve_steady":
        rep = traced["reps"][0]
        m["telemetry.resident_samples"] = rep["resident_samples"]
        m["telemetry.evicted_samples"] = rep["evicted_samples"]
        m["core.rolling_rebuilds"] = rep["rolling_rebuilds"]
    m["telemetry.format_double_ns"] = per("telemetry.format_double",
                                          "total_ns", "calls", 1)
    m["telemetry.format_double_calls"] = s("telemetry.format_double")["calls"]
    if traced["workload"] == "trace_plan":
        m["telemetry.csv_bytes"] = traced["csv_bytes"][0]
    m["telemetry.csv_read_ms"] = per("telemetry.read_pool_csv", "total_ns",
                                     "spans", 1e6)
    m["telemetry.store_keys_us"] = per("telemetry.store_keys", "total_ns",
                                       "spans", 1e3)
    m["query.window_value_ns"] = per("query.window_value", "total_ns",
                                     "calls", 1)
    m["query.window_value_calls"] = s("query.window_value")["calls"]
    pool_windows = s("core.rolling_add_window")["spans"]
    if pool_windows:
        m["core.rolling_plan_us"] = (s("core.rolling_add_window")["total_ns"] +
                                     s("core.rolling_plan")["total_ns"]
                                     ) / pool_windows / 1e3
    windows = s("core.health_advance")["spans"]
    if windows:
        m["core.health_us"] = (s("core.health_ingest")["total_ns"] +
                               s("core.health_advance")["total_ns"]
                               ) / windows / 1e3
    m["core.measure_plan_ms"] = per("core.measure_plan", "total_ns", "spans",
                                    1e6)
    m["core.forecast_pool_ms"] = per("core.forecast_pool", "self_ns", "spans",
                                     1e6)
    m["core.forecast_calls"] = s("core.forecast_pool")["spans"]
    m["scenario.format_plan_ms"] = per("scenario.format_plan", "total_ns",
                                       "spans", 1e6)
    m["scenario.export_trace_ms"] = per("scenario.export_trace", "self_ns",
                                        "spans", 1e6)
    if untraced["workload"] == "trace_plan":
        m["export_s"] = median(untraced["export_ns"]) / 1e9
        m["plan_s"] = median(untraced["plan_ns"]) / 1e9
        m["forecasts_per_s"] = untraced["forecasts"] / (
            sum(untraced["plan_ns"]) / 1e9)
    u_wall = end_to_end(untraced)["wall_s"]
    m["trace.overhead_frac"] = (end_to_end(traced)["wall_s"] - u_wall) / u_wall
    return m


def with_units(values, units):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


# --- main -------------------------------------------------------------------

WORKLOADS = ("serve_steady", "trace_plan")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")

    start = time.time()
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "perfbench"
    # The first run of a checkout may spend most of its budget building.
    binary = build(build_dir, start + 880)
    deadline = time.time() + RUN_BUDGET_S

    work = build_dir / "work" / ("%s-s%d-t%d" % (args.workload, args.seed,
                                                 args.trace))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    flags = generate(args.workload, args.seed, args.seconds, work)
    golden = None
    if args.workload in GOLDEN and args.seed == DEFAULT_SEED:
        golden = (ROOT / GOLDEN[args.workload]).read_text()

    untraced = run_harness(binary, args.workload, flags, work / "untraced",
                           False, deadline)
    problems = check_pass(untraced, golden)
    if args.trace:
        traced = run_harness(binary, args.workload, flags, work / "traced",
                             True, deadline)
        problems += check_pass(traced, golden)
        problems += check_traced_equals_untraced(untraced, traced)
        metrics = with_units(per_layer(untraced, traced), PER_LAYER)
        attempted = len(timed_ops(traced))
    else:
        metrics = with_units(end_to_end(untraced), END_TO_END)
        attempted = len(timed_ops(untraced))
    for problem in problems:
        print("CHECK FAILED: " + problem, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": attempted if problems else 0,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
