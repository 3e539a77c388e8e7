#!/usr/bin/env python3
"""Smoke tests of the benchmark, at the smallest size each workload allows.

    python3 perfbench/smoke.py

For every workload: every metric BENCHMARK.json names is printed with its
unit, no op fails, the simulated-output digest repeats for the same seed
and differs across seeds, and the traced run's digest equals the
untraced run's. Builds through run.py first (the first call compiles).
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Smallest --ops that still leaves ten samples beyond the p99.9 rank.
MIN_OPS = {"virtio_echo": 10000, "xdma_rw": 10000, "blk_qd32": 5000}


def run(workload, seed, trace):
    """Run one smallest-size invocation; return (details, result)."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--ops", str(MIN_OPS[workload])],
        stdout=subprocess.PIPE, text=True, check=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    details = json.loads(lines[-2])["details"]
    return details, json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def test_workloads_listed(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(MIN_OPS))

    def test_unknown_workload_fails(self):
        rc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).returncode
        self.assertNotEqual(rc, 0)

    def check_metrics(self, result, names):
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in names))
        for m in names:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_each_workload(self):
        for w in MIN_OPS:
            with self.subTest(workload=w):
                details, result = run(w, 1, 0)
                self.assertTrue(result["correct"])
                self.assertTrue(details["deterministic"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(details["failed_op_ratio"], 0)
                self.assertGreaterEqual(details["p999_tail_samples"], 10)
                self.check_metrics(result, SPEC["end_to_end"])

                again, _ = run(w, 1, 0)
                self.assertEqual(again["digest"], details["digest"])
                other, _ = run(w, 2, 0)
                self.assertNotEqual(other["digest"], details["digest"])

                traced, traced_result = run(w, 1, 1)
                self.assertTrue(traced_result["correct"])
                self.assertTrue(traced["deterministic"])
                self.assertEqual(traced["traced_digest"], traced["digest"])
                self.assertEqual(traced["digest"], details["digest"])
                self.check_metrics(traced_result, SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()
