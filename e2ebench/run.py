#!/usr/bin/env python3
"""Build and run the CoolCMP end-to-end benchmark.

Usage, from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is table8_batched or service_mixed. The script

1. builds the e2ebench binary from source into .bench_build/e2ebench
   (CMake, RelWithDebInfo, the same flags as the main build);
2. generates the warm power-trace cache the warm workloads copy from,
   once per simulator source tree (about a minute on 4 cores);
3. runs the workload in a fresh scratch directory under .bench_build
   (the binary clears every COOLCMP_* variable itself) and relays its
   output: human lines first, then one JSON line with the metrics;
4. appends the run, with host and build attribution, to
   .bench_build/e2ebench/results.jsonl.

With --trace 1 the run reports the per-layer metrics and writes a
Chrome trace to .bench_build/e2ebench/traces/<workload>-seed<N>.json.
The exit status is the binary's: nonzero when any job or check failed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "e2ebench"
BUILD = OUT / "build"
BINARY = BUILD / "e2ebench"
WARM = OUT / "warm-traces"
WORKLOADS = ("table8_batched", "service_mixed")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def source_digest():
    """Digest of the simulator sources the warm traces depend on."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
         "e2ebench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def prepare_warm_traces():
    stamp = WARM / ".complete"
    digest = source_digest()
    if stamp.exists() and stamp.read_text() == digest:
        return True
    log("generating the warm trace cache (once per source tree)")
    shutil.rmtree(WARM, ignore_errors=True)
    done = subprocess.run([str(BINARY), "--prepare-traces", str(WARM)],
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        log("warm trace generation failed")
        return False
    stamp.write_text(digest)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject", choices=("digest", "job"),
                        help="make the run fail on purpose (tests)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("CoolCMP sources not found next to", HERE.name,
            "- run from a full checkout")
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build() or not prepare_warm_traces():
            return 2

    work = OUT / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", str(work),
           "--warm-traces", str(WARM)]
    if args.trace == "1":
        traces = OUT / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.inject:
        cmd += ["--inject", args.inject]

    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload exceeded", RUN_TIMEOUT_S, "s")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stdout.write(done.stdout)
        log("workload printed no result; exit status", done.returncode)
        return done.returncode or 4

    host = next((json.loads(l[5:]) for l in lines
                 if l.startswith("host ")), {})
    # The raw host figures behind the scaled metrics.
    raw = next((l for l in lines if l.startswith("host_probe_s ")), None)
    with open(OUT / "results.jsonl", "a") as record:
        record.write(json.dumps({"host": host, "raw": raw,
                                 "result": result}) + "\n")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
