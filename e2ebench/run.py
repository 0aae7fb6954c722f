#!/usr/bin/env python3
"""End-to-end campaign benchmark for ramloc.

Builds the driver (a CMake package in this directory that compiles the
library from ../src) into .bench_build/e2ebench, runs one workload and
relays the driver's result: the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

    python3 e2ebench/run.py --workload grid-measure --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seconds 5   # every workload in turn

--trace 0 reports the end-to-end metrics and runs the correctness checks;
--trace 1 reports the per-layer ledger and writes, per workload, a Chrome
trace and a ledger table under .bench_build/e2ebench/out. --record appends
the run to history/runs.jsonl, the tracked results history.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
DRIVER = os.path.join(BUILD, "e2e_driver")
HISTORY = os.path.join(HERE, "history", "runs.jsonl")
WORKLOADS = ["grid-measure", "grid-tight-model", "store-resweep",
             "grid-measure-par"]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "campaign", "Campaign.h")):
        log("run.py: ramloc sources not found under %s" %
            os.path.join(ROOT, "src"))
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log("run.py: build step failed: %s" % " ".join(cmd))
            return False
    return True


def run_workload(workload, seed, seconds, trace):
    """Runs the driver once; returns its parsed result or None."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", os.path.join(HERE, "reference"),
           "--out", os.path.join(BUILD, "out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("run.py: driver exited with code %d" % done.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("run.py: driver printed no result")
        return None


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def record(workload, args, result):
    entry = {
        "commit": commit(),
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host_cores": os.cpu_count(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }
    os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
    with open(HISTORY, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="append the result to history/runs.jsonl")
    args = parser.parse_args()

    if not build():
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        if args.record:
            record(workload, args, result)
        results[workload] = result

    if args.workload != "all":
        print(json.dumps(results[args.workload]), flush=True)
        return 0
    for workload, result in results.items():
        print("%s: correct=%s attempted=%d failed=%d" %
              (workload, result["correct"], result["attempted"],
               result["failed"]))
        for name, metric in result["metrics"].items():
            print("  %-28s %16.6g %s" % (name, metric["value"],
                                         metric["unit"]))
    print(json.dumps(results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
