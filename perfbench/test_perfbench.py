#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

Run from the repository root:  python3 perfbench/test_perfbench.py

Builds the benchmark through run.py, then runs every workload at smoke-test
size (--tiny, one second) untraced and traced, and checks that each run
passes its output checks and emits every metric BENCHMARK.json names, with
its unit. A negative case corrupts each workload's expected result and
requires the output check to fail.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (perfbench/run.py)

END_TO_END_UNITS = {
    "setup_s": "s",
    "intervals_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = load_benchmark()
        cls.out_dir = os.path.join(ROOT, ".bench_out", "tests")

    def run_tiny(self, workload, trace, *extra):
        cmd = [self.binary, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny", "--out-dir", self.out_dir, *extra]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(lines, f"{workload}: no output; stderr: {proc.stderr}")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        return proc, result

    def report(self, workload, trace):
        stem = f"{workload}-seed3" + ("-trace" if trace else "")
        with open(os.path.join(self.out_dir, stem + ".report.json")) as f:
            return json.load(f)

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        gated = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                proc, result = self.run_tiny(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 gated)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                report = self.report(workload, 0)
                self.assertEqual({k: v["unit"] for k, v in report["end_to_end"].items()},
                                 END_TO_END_UNITS)
                self.assertEqual(report["end_to_end"]["error_rate"]["value"], 0)
                for key in ("host_cores", "simd", "rev", "build_type", "seed"):
                    self.assertIn(key, report)
                self.assertTrue(report["valid"])
                for name in END_TO_END_UNITS:
                    self.assertIn(f"{name} = ", proc.stdout)

    def test_traced_runs_emit_every_per_layer_metric(self):
        layers = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                proc, result = self.run_tiny(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                self.assertTrue(result["correct"])
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 layers)
                metrics = result["metrics"]
                self.assertGreater(metrics["sim.step_ns"]["value"], 0)
                self.assertGreater(metrics["net.placement_attempts"]["value"], 0)
                share = metrics["sim.unattributed_share"]["value"]
                self.assertTrue(-1.0 < share < 1.0, share)
                spans = f"{workload}-seed3.spans.jsonl"
                self.assertTrue(os.path.exists(os.path.join(self.out_dir, spans)))

    def test_corrupted_expected_result_fails_the_check(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                proc, result = self.run_tiny(workload, 0, "--corrupt-expected")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("FAILED", proc.stdout)

    def test_unknown_workload_is_rejected(self):
        proc = subprocess.run([self.binary, "--workload", "nope", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_workload_notes_cover_every_workload(self):
        with open(os.path.join(HERE, "workloads.json")) as f:
            notes = json.load(f)
        names = {w["name"] for w in self.spec["workloads"]}
        self.assertEqual(set(notes["workloads"]), names)
        layer_names = {m["name"] for m in self.spec["per_layer"]}
        self.assertIn("tail_rule", notes)
        for name, entry in notes["workloads"].items():
            for key in ("why", "loads", "bypasses", "held_out_seed"):
                self.assertIn(key, entry, name)
        for layer, effects in notes["layer_to_end_to_end"].items():
            self.assertIn(layer, layer_names)
            for effect in effects:
                self.assertIn(effect["workload"], names)


if __name__ == "__main__":
    unittest.main()
