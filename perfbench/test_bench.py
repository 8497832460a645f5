#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload of BENCHMARK.json at a reduced size (run.py --small),
untraced and traced, and checks that:
  - both passes succeed with no failed step;
  - the printed metric names and units are exactly BENCHMARK.json's
    end_to_end (untraced) and per_layer (traced) lists;
  - the traced pass reproduced the untraced runs (the runner's faithful
    flag) and its simulated totals equal the untraced run's.

Run from the root of the repository: python3 perfbench/test_bench.py
The first run builds the runner, as run.py does.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as run_py  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run(workload, trace):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--small"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class BenchmarkTest(unittest.TestCase):
    def check_pass(self, workload, trace):
        """Runs one pass, checks its result line and returns its detail."""
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        self.assertEqual(
            [(k, v["unit"]) for k, v in result["metrics"].items()],
            [(m["name"], m["unit"]) for m in SPEC[section]])
        self.assertTrue(detail["deterministic"])
        return detail

    def check_workload(self, workload):
        untraced = self.check_pass(workload, 0)
        traced = self.check_pass(workload, 1)
        self.assertTrue(traced["faithful"])
        self.assertEqual(untraced["sim"], traced["sim"])

    def test_workloads_are_the_ones_run_py_accepts(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]),
                         run_py.WORKLOADS)

    def test_grid(self):
        self.check_workload("grid")

    def test_fuzz_mix(self):
        self.check_workload("fuzz-mix")

    def test_serve(self):
        self.check_workload("serve")


if __name__ == "__main__":
    unittest.main(verbosity=2)
