#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs run.py on each workload with seeds 1..N (--trace 0), then prints per
metric the median and the distance between the first and third quartile
as a share of the median, beside the metric's bound from BENCHMARK.json.
A spread above a third of its bound is flagged. Every run is appended to
history/runs.jsonl.

    python3 e2ebench/spread.py --runs 10                 # every workload
    python3 e2ebench/spread.py --runs 5 grid-measure-par
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0",
                   "--record"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  check=False)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 else None
            if result is None or not result["correct"]:
                print("%s seed %d: run failed or incorrect" % (workload, seed))
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d runs)" % (workload, args.runs))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print("  %-20s median %12.6g  spread %6.2f%%  bound %5.2f%%%s" %
                  (name, med, 100 * spread, 100 * bounds[name], flag))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
