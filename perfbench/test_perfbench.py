#!/usr/bin/env python3
"""Tests of the repo benchmark itself.

    python3 perfbench/test_perfbench.py

- the C++ unit tests (span self time, nearest-rank percentiles);
- BENCHMARK.json declares exactly the metrics the binary prints;
- a small-scale smoke of all four workloads in both modes: every
  declared metric is printed, finite, and carries its declared unit;
- the entry point fails, without a result line, when the simulator
  sources are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class PerfBench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build("perfbench")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_unit_tests(self):
        try:
            run.build("perfbench_tests")
        except subprocess.CalledProcessError:
            self.skipTest("GTest not available")
        subprocess.run([os.path.join(self.out, "perfbench_tests")],
                       check=True, stdout=subprocess.DEVNULL)

    def test_declared_metrics_match(self):
        listed = subprocess.run(
            [os.path.join(self.out, "perfbench"), "--list-metrics"],
            check=True, capture_output=True, text=True).stdout.split("\n")
        printed = {"end_to_end": [], "per_layer": []}
        for line in filter(None, listed):
            kind, name, unit, better = line.split()
            printed[kind].append((name, unit, better))
        for kind in printed:
            declared = [(m["name"], m["unit"], m["better"])
                        for m in self.spec[kind]]
            self.assertEqual(declared, printed[kind], kind)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_smoke_all_workloads(self):
        scratch = os.path.join(self.out, "smoke")
        os.makedirs(scratch, exist_ok=True)
        for wl in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl, trace=trace):
                    p = subprocess.run(
                        [os.path.join(self.out, "perfbench"),
                         "--workload", wl, "--seed", "3", "--seconds",
                         "0.05", "--trace", str(trace), "--scale", "0.25",
                         "--scratch", scratch],
                        capture_output=True, text=True)
                    self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
                    res = last_json(p.stdout)
                    self.assertEqual(set(res),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[kind]}
                    self.assertEqual(set(res["metrics"]), set(want))
                    for name, m in res["metrics"].items():
                        self.assertEqual(m["unit"], want[name], name)
                        self.assertIsInstance(m["value"], (int, float))
                        self.assertTrue(math.isfinite(m["value"]), name)
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_bare_directory_fails(self):
        bare = os.path.join(self.out, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "b"))
        p = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", "ds_closed",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
