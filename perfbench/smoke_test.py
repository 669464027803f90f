#!/usr/bin/env python3
"""The benchmark's own smoke test. Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it makes a smoke-size run (--smoke)
untraced and traced, and asserts that the result line has exactly the
contract's keys, that every metric BENCHMARK.json names appears with its
unit, that every correctness gate passed and no op failed. Then it corrupts
one answer per workload (--corrupt) and asserts that the gate catches it.
Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 3
SECONDS = 1


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", str(trace), "--smoke",
               *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def check_result(label, code, result, stderr, expected):
    check(code == 0, "%s: exit %d\n%s" % (label, code, stderr[-2000:]))
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s: result keys %s" % (label, sorted(result)))
    check(result["correct"] is True, "%s: a gate failed\n%s" % (label, stderr))
    check(result["attempted"] >= 1 and result["failed"] == 0,
          "%s: attempted %d, failed %d" % (label, result["attempted"],
                                           result["failed"]))
    metrics = result["metrics"]
    check(set(metrics) == set(expected),
          "%s: metrics %s, expected %s" % (label, sorted(metrics),
                                           sorted(expected)))
    for name, unit in expected.items():
        value = metrics[name]["value"]
        check(metrics[name]["unit"] == unit,
              "%s: %s has unit %s, expected %s" % (label, name,
                                                   metrics[name]["unit"], unit))
        check(isinstance(value, (int, float)) and math.isfinite(value),
              "%s: %s = %r" % (label, name, value))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in [w["name"] for w in spec["workloads"]]:
        code, result, stderr = run(workload, 0)
        check_result(workload + " untraced", code, result, stderr, end_to_end)
        for name in end_to_end:
            check(result["metrics"][name]["value"] > 0,
                  "%s: end-to-end metric %s is 0" % (workload, name))

        code, result, stderr = run(workload, 1)
        check_result(workload + " traced", code, result, stderr, per_layer)
        coverage = result["metrics"]["span_coverage"]["value"]
        check(coverage >= 0.95, "%s: span coverage %.4f" % (workload, coverage))

        # Negative case: a corrupted answer must fail the run.
        code, result, stderr = run(workload, 0, "--corrupt")
        check(code != 0 and result is not None and result["correct"] is False,
              "%s: corrupted answer passed the gate (exit %d)" % (workload, code))
        print("%-13s ok (untraced, traced, corrupted answer caught)" % workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
