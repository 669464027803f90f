#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it: one run per seed, then for each metric the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the median.

    python3 perfbench/spread.py --workload serve_read --runs 10 [--first-seed 1]
        [--seconds 10]

Prints one JSON line per run and a summary table; exits non-zero if any run
fails or reports correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as spec:
            args.seconds = json.load(spec)["run_seconds"]

    values = {}
    units = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, done.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        print(json.dumps({"seed": seed, **result}))
        ok = ok and result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print("%-16s %14s %10s" % ("metric", "median", "iqr/median"))
    for name, series in values.items():
        median = statistics.median(series)
        spread = 0.0
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median)
        print("%-16s %14.6g %10.4f  %s" % (name, median, spread, units[name]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
