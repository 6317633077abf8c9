#!/usr/bin/env python3
"""The benchmark's own tests.

- the arithmetic self-test (percentiles, sliced percentiles and span
  self time on synthetic data, perfbench_selftest);
- a short smoke run of every workload in both modes, asserting the
  result line is correct and carries every metric BENCHMARK.json names
  for that mode, with its unit;
- the model check: two single-threaded fixed-seed passes per workload
  agree exactly.

    python3 perfbench/test_smoke.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


class Smoke(unittest.TestCase):
    def test_selftest(self):
        r = run("--selftest")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("PASS", r.stdout)

    def test_every_metric_present_with_unit(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = run("--workload", w["name"], "--seed", "7",
                            "--seconds", "1", "--trace", str(trace))
                    self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                    res = json.loads(r.stdout.splitlines()[-1])
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {n: m["unit"] for n, m in res["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for n in want:
                            self.assertGreater(res["metrics"][n]["value"], 0,
                                               n)

    def test_model_check_repeats_exactly(self):
        r = run("--model-check", "--seed", "5")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(r.stdout.count("IDENTICAL"), len(SPEC["workloads"]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
