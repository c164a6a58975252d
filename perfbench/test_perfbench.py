#!/usr/bin/env python3
# Copyright (c) 2026 The G-RCA Reproduction Authors.
# SPDX-License-Identifier: MIT
"""Smoke tests for the benchmark itself, on reduced-scale corpora.

Every workload named in BENCHMARK.json must print every metric it names,
each finite and with its unit, and the correctness checks must fail a run
whose verdicts were deliberately corrupted. Run from the checkout root:

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, kind):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
            if kind == "end_to_end":
                self.assertGreater(m["value"], 0, name)

    def test_every_metric_present_and_finite(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.check_metrics(result, kind)
                    if trace:
                        metrics = result["metrics"]
                        self.assertGreater(
                            metrics["trace.span_coverage"]["value"], 0.9)
                        self.assertGreater(
                            metrics["core.engine.symptoms"]["value"], 0)

    def test_corrupted_verdict_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 0, "--corrupt-verdict")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_fails_without_the_program_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark: the
        # build must fail fast, and no result may be printed.
        isolated = ROOT / ".bench_build" / "isolated"
        shutil.rmtree(isolated, ignore_errors=True)
        shutil.copytree(HERE, isolated / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", isolated)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=isolated, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180,
            env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
        shutil.rmtree(isolated, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
