#!/usr/bin/env python3
"""Tests of the benchmark itself, at smoke scale.

    python3 perfbench/test_bench.py      (from the root of a checkout)

For every workload, both tables print every metric BENCHMARK.json names,
with its unit, as one parseable JSON line; and a deliberately broken
correctness check makes the run exit non-zero with "correct": false.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def check_table(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        table = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual([m["name"] for m in table],
                         list(result["metrics"]))
        for m in table:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_end_to_end_tables(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_table(w, 0)

    def test_per_layer_tables(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_table(w, 1)

    def test_broken_check_exits_nonzero(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, 0, "--inject-fault")
                self.assertNotEqual(proc.returncode, 0)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertIs(result["correct"], False)
                self.assertIn("correctness violation", proc.stderr)


if __name__ == "__main__":
    unittest.main()
