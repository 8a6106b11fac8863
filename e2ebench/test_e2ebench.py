#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the repository root (builds the benchmark on first use, then
takes a few minutes):

    python3 -m unittest e2ebench/test_e2ebench.py

- short-mode smoke: every workload with --seconds 1 (one round) prints
  every end-to-end metric of BENCHMARK.json with its unit, and a traced
  run prints every per-layer metric and writes a loadable Chrome trace;
- negative: a corrupted pinned digest and an injected failed job each
  raise the failed count (error_rate) and make the command exit nonzero;
- a directory holding only BENCHMARK.json and the benchmark fails fast
  without printing a result.
"""

import json
import shutil
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace="0", seconds="1", extra=(), cwd=ROOT):
    """Run the benchmark command; (exit status, stdout lines)."""
    done = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "7",
                           "--seconds", seconds, "--trace", trace,
                           *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    return done.returncode, done.stdout.splitlines()


def last_json(lines):
    return json.loads(lines[-1])


class MetricsPrinted(unittest.TestCase):
    def assert_metrics(self, lines, expected):
        result = last_json(lines)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = result["metrics"]
        self.assertEqual(list(got), [m["name"] for m in expected])
        for m in expected:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            printed = [l for l in lines
                       if l.startswith(f"metric {m['name']} ")]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertTrue(printed[0].endswith(" " + m["unit"]))

    def test_end_to_end_metrics_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                status, lines = bench(workload)
                self.assertEqual(status, 0)
                self.assert_metrics(lines, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(
                        last_json(lines)["metrics"][m["name"]]["value"], 0)

    def test_per_layer_metrics_and_trace_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                status, lines = bench(workload, trace="1")
                self.assertEqual(status, 0)
                self.assert_metrics(lines, SPEC["per_layer"])
                trace = (ROOT / ".bench_build" / "e2ebench" / "traces" /
                         f"{workload}-seed7.json")
                events = json.loads(trace.read_text())["traceEvents"]
                self.assertTrue(any(e.get("ph") == "X" for e in events))
                self.assertTrue(any(l.startswith("self_time ")
                                    for l in lines))


class FailuresAreReported(unittest.TestCase):
    def assert_failed(self, status, lines):
        self.assertNotEqual(status, 0)
        result = last_json(lines)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        rate = [l for l in lines if l.startswith("error_rate ")]
        self.assertEqual(len(rate), 1)
        self.assertGreater(float(rate[0].split()[1]), 0.0)

    def test_corrupted_pinned_digest(self):
        self.assert_failed(*bench("table8_batched",
                                  extra=("--inject", "digest")))

    def test_injected_failed_job(self):
        self.assert_failed(*bench("table8_batched",
                                  extra=("--inject", "job")))

    def test_without_sources_fails_fast(self):
        bare = ROOT / ".bench_build" / "e2ebench" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            status, lines = bench("table8_batched", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(status, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
