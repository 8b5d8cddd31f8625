#!/usr/bin/env python3
"""Self-tests of the benchmark harness: python3 perfbench/test_perfbench.py"""

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

# Every metric the benchmark design names, with its unit. failed_frac is
# carried by the result line's "failed" and "attempted" counts instead: a
# metric must never read 0. A named metric is either in BENCHMARK.json or
# in run.NOT_DRIVEN with the reason it is left out.
NAMED = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "windows_per_s": "1/s", "window_p50_ms": "ms", "window_p90_ms": "ms",
    "server_windows_per_s": "1/s", "export_s": "s", "plan_s": "s",
    "forecasts_per_s": "1/s",
    "sim.step_ms_per_window": "ms", "sim.server_windows": "count",
    "sim.lane_speedup": "ratio",
    "telemetry.resident_samples": "count",
    "telemetry.evicted_samples": "count",
    "telemetry.format_double_ns": "ns",
    "telemetry.format_double_calls": "count",
    "telemetry.csv_write_ms": "ms", "telemetry.csv_bytes": "bytes",
    "telemetry.csv_read_ms": "ms",
    "query.window_value_ns": "ns", "query.window_value_calls": "count",
    "core.rolling_plan_us": "us", "core.rolling_rebuilds": "count",
    "core.health_us": "us", "core.measure_plan_ms": "ms",
    "core.forecast_pool_ms": "ms", "core.forecast_calls": "count",
    "ml.observe_ns": "ns", "ml.predict_ns": "ns",
    "scenario.format_plan_ms": "ms", "trace.overhead_frac": "ratio",
}


def benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


class StatisticsTest(unittest.TestCase):
    def test_median_matches_statistics(self):
        for values in ([3.0], [2.0, 1.0], [5, 1, 4, 2, 3], [1, 1, 9, 10]):
            self.assertEqual(run.median(values), statistics.median(values))

    def test_percentile_interpolates(self):
        values = list(range(1, 11))
        self.assertEqual(run.percentile(values, 0), 1)
        self.assertEqual(run.percentile(values, 100), 10)
        self.assertAlmostEqual(run.percentile(values, 90), 9.1)
        self.assertAlmostEqual(run.percentile(values, 50), 5.5)
        self.assertEqual(run.percentile([7, 7, 7], 90), 7)

    def test_percentile_ignores_order(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 50),
                         run.percentile([1, 2, 3, 4], 50))

    def test_percentile_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class SteadyWindowTest(unittest.TestCase):
    def test_ramp_is_dropped(self):
        window = 120
        steady_from = 3 * 86400
        op_t = list(range(0, 6 * 86400, window))
        # Cost climbs linearly until the retention bound, then stays flat.
        op_ns = [min(t, steady_from) // 100 + 1000 for t in op_t]
        steady = run.steady_windows(op_t, op_ns, steady_from)
        self.assertEqual(len(steady), 3 * 86400 // window)
        self.assertEqual(set(steady), {steady_from // 100 + 1000})

    def test_nothing_steady(self):
        self.assertEqual(run.steady_windows([0, 120], [5, 6], 240), [])


class MetricNameTest(unittest.TestCase):
    def test_charset(self):
        bench = benchmark_json()
        names = ([m["name"] for m in bench["end_to_end"]] +
                 [m["name"] for m in bench["per_layer"]] +
                 [w["name"] for w in bench["workloads"]] +
                 list(run.END_TO_END) + list(run.PER_LAYER))
        for name in names:
            self.assertRegex(name, run.NAME_RE)
            self.assertTrue(set(name) <= set(
                "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                "0123456789_.-"), name)
        for bad in ("bad name", "_lead", "a/b", "x" * 65, ""):
            self.assertIsNone(run.NAME_RE.match(bad), bad)

    def test_benchmark_json_lists_every_metric(self):
        bench = benchmark_json()
        listed = {m["name"]: m["unit"]
                  for m in bench["end_to_end"] + bench["per_layer"]}
        for name, unit in NAMED.items():
            if name in run.NOT_DRIVEN:
                self.assertNotIn(name, listed)
            else:
                self.assertEqual(listed.get(name), unit, name)
        self.assertLessEqual(set(run.NOT_DRIVEN), set(NAMED))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class OutputCheckTest(unittest.TestCase):
    SUMMARY = "scenario = hot_cool_fleet\nresult = PASS\n"
    HEALTH = "health overall = nominal\nhealth degraded = 0\n"

    def serve_pass(self, work, summary):
        (work / "batch_summary.txt").write_text(self.SUMMARY)
        (work / "summary_0.txt").write_text(summary)
        (work / "health_0.txt").write_text(self.HEALTH)
        return {"_work": str(work), "workload": "serve_steady",
                "reps": [{"dark_lines": 0, "report_digest": "x"}]}

    def test_serve_check_passes_and_catches_a_perturbed_summary(self):
        with tempfile.TemporaryDirectory() as d:
            res = self.serve_pass(Path(d), self.SUMMARY)
            self.assertEqual(run.check_pass(res, self.SUMMARY), [])
            perturbed = self.SUMMARY.replace("PASS", "PASs")
            res = self.serve_pass(Path(d), perturbed)
            self.assertTrue(run.check_pass(res, None))
            res = self.serve_pass(Path(d), self.SUMMARY)
            self.assertTrue(run.check_pass(res, perturbed))

    def test_health_check(self):
        pool = ("health pool 2 2 : mode={} healed={} quarantined_nan={} "
                "quarantined_implausible=0 quarantined_duplicate=0 "
                "quarantined_out_of_order=0 realigned=0 late_windows=3 "
                "malformed_rows=0 io_retries=0 stale_windows=0\n")
        report = ("health overall = nominal\nhealth degraded = {}\n"
                  "health pools = 1\n" + pool)
        ok = report.format(0, "nominal", 0, 0)
        self.assertEqual(run.health_problems(ok, 0), [])
        healed = report.format(1, "nominal", 55, 0)
        self.assertEqual(run.health_problems(healed, 5), [])
        self.assertTrue(run.health_problems(healed, 4))
        self.assertTrue(run.health_problems(
            report.format(1, "nominal", 0, 2), 0))
        self.assertTrue(run.health_problems(
            report.format(1, "failsafe", 0, 0), 0))
        self.assertTrue(run.health_problems(
            ok + "health transition 1 : t=0 pool 2 2 healing -> stale (x)\n",
            0))

    def test_plan_check_ignores_only_the_source_line(self):
        with tempfile.TemporaryDirectory() as d:
            work = Path(d)
            body = "plan = p\nsource = {}\ncases = 27\n"
            (work / "plan_reference.txt").write_text(body.format("scenario"))
            (work / "plan_report.txt").write_text(body.format("trace"))
            res = {"_work": d, "workload": "trace_plan", "traced": False,
                   "reports_agree": True, "csv_bytes": [9, 9]}
            self.assertEqual(run.check_pass(res, None), [])
            self.assertTrue(run.check_pass(dict(res, csv_bytes=[9, 8]),
                                           None))
            (work / "plan_report.txt").write_text(
                body.format("trace").replace("27", "28"))
            self.assertTrue(run.check_pass(res, None))

    def test_repeated_counts_must_match(self):
        with tempfile.TemporaryDirectory() as d:
            for name in ("plan_reference.txt", "plan_report.txt"):
                (Path(d) / name).write_text("plan = p\n")
            res = {"_work": d, "workload": "trace_plan", "traced": True,
                   "reports_agree": True, "csv_bytes": [9, 9],
                   "rep_calls": [{"core.forecast_pool": 4},
                                 {"core.forecast_pool": 4}]}
            self.assertEqual(run.check_pass(res, None), [])
            res["rep_calls"][1]["core.forecast_pool"] = 5
            self.assertTrue(run.check_pass(res, None))


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_equal_cost_across_seeds(self):
        with tempfile.TemporaryDirectory() as d:
            for workload in run.WORKLOADS:
                texts = []
                for seed in (5, 5, 6):
                    work = Path(d) / ("%s-%d-%d" % (workload, seed,
                                                    len(texts)))
                    work.mkdir()
                    flags = run.generate(workload, seed, 10, work)
                    texts.append(((work / "spec.scn").read_text(),
                                  flags[2:4]))
                self.assertEqual(texts[0], texts[1])
                self.assertNotEqual(texts[0][0], texts[2][0])
                self.assertEqual(texts[0][1], texts[2][1])


if __name__ == "__main__":
    unittest.main()
