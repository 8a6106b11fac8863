#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

Usage, from the repository root:

    python3 e2ebench/spread.py [--workloads a,b] [--seeds 10]
                               [--first-seed 1] [--seconds S] [--out FILE]

Runs run.py once per seed for every workload (default: all of
BENCHMARK.json, at its run_seconds) and prints, per end-to-end metric,
the median and the quartile spread (Q3 - Q1) / median, as
statistics.quantiles(values, n=4) gives the quartiles, next to the
metric's bound. A spread at or above a third of its bound is flagged
"WIDE". The same figures are printed for the raw host times (the
"raw_" rows), before scaling by the host-speed probe.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def raw_figures(lines):
    """The host_probe_s note: probe median and the raw host figures."""
    for line in lines:
        if line.startswith("host_probe_s "):
            words = line.split()
            raw = words[words.index("raw") + 1:]
            out = {"raw_probe_s": float(words[1])}
            for name, value in zip(raw[::2], raw[1::2]):
                out["raw_" + name] = float(value)
            return out
    return {}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--out", help="write all values as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    failures = 0
    for workload in args.workloads.split(","):
        per_metric = values.setdefault(workload, {})
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, str(ROOT / "e2ebench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                failures += 1
                print(f"{workload} seed {seed}: FAILED", flush=True)
                continue
            figures = {n: m["value"] for n, m in result["metrics"].items()}
            figures.update(raw_figures(lines))
            for name, value in figures.items():
                per_metric.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v:.4g}" for n, v in figures.items()), flush=True)
        for name, vals in per_metric.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name.removeprefix("raw_"), 0.0)
            flag = "" if spread < bound / 3 else "  WIDE"
            print(f"  {workload:17s} {name:16s} median {med:.5g} "
                  f"spread {spread:.4f} bound {bound}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
