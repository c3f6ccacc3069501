#!/usr/bin/env python3
"""Smoke test of the benchmark in a tiny configuration (one-second runs).

Run from the repository root:

    python3 perfbench/test_smoke.py

Asserts that every metric BENCHMARK.json names is emitted with its unit, in
untraced and traced runs of every workload, that every answer passes the
golden gate, and that another seed changes the generated queries but not the
metric set. Takes under a minute once the program is built.
"""

import functools
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def run(workload, seed, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} seed {seed} trace {trace} failed "
                             f"({completed.returncode}):\n{completed.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


class BenchmarkSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)

    def expected(self, trace):
        return {m["name"]: m["unit"] for m in self.spec["per_layer" if trace else "end_to_end"]}

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    _, result = run(workload, 1, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, self.expected(trace))
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_another_seed_changes_queries_not_metrics(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                first_record, first = run(workload, 1, 0)
                second_record, second = run(workload, 2, 0)
                self.assertNotEqual(first_record["detail"]["first_queries"],
                                    second_record["detail"]["first_queries"])
                self.assertEqual(set(first["metrics"]), set(second["metrics"]))


if __name__ == "__main__":
    unittest.main()
