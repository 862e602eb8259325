#!/usr/bin/env python3
"""Self-test of the benchmark: run from the repository root with

    python3 recdbench/test_bench.py

Runs every workload at a tiny size and checks that each workload emits
every metric BENCHMARK.json names, finite and with its unit; that a
deliberately corrupted output trips each workload's correctness check;
and that the benchmark fails cleanly in a directory holding nothing but
BENCHMARK.json and recdbench/.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

FAULT_BY_WORKLOAD = {
    "train_rm1_highdup": "bad-loss",
    "preprocess_rm3_lowdup": "drop-batch",
    "serve_zoo_open": "flip-score",
}


def run(workload, trace, fault="none", cwd=ROOT, seed=7):
    cmd = [sys.executable, "recdbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--fault", fault]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result


class BenchmarkTest(unittest.TestCase):
    def check_result(self, result):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertTrue(math.isfinite(m["value"]), name)
            self.assertTrue(m["unit"], name)

    def check_metrics(self, trace, units):
        for workload in FAULT_BY_WORKLOAD:
            with self.subTest(workload=workload, trace=trace):
                code, result = run(workload, trace)
                self.assertEqual(code, 0)
                self.check_result(result)
                metrics = result["metrics"]
                self.assertEqual(sorted(metrics), sorted(units))
                for name, unit in units.items():
                    self.assertEqual(metrics[name]["unit"], unit, name)
                    if trace == 0:  # end-to-end metrics are never 0
                        self.assertGreater(metrics[name]["value"], 0, name)

    def test_end_to_end_metrics(self):
        self.check_metrics(0, E2E_UNITS)

    def test_per_layer_metrics(self):
        self.check_metrics(1, LAYER_UNITS)

    def test_corrupted_output_fails_the_check(self):
        for workload, fault in FAULT_BY_WORKLOAD.items():
            with self.subTest(workload=workload, fault=fault):
                code, result = run(workload, 0, fault=fault)
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                if fault == "drop-batch":  # also a missing-rows failure
                    self.assertGreater(result["failed"], 0)

    def test_fails_without_the_program_sources(self):
        bare = ROOT / ".bench_build" / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "recdbench", bare / "recdbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = run("train_rm1_highdup", 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
