#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload raw_attack --seed 1 --seconds 10 --trace 0

Every argument is passed on to the benchmark binary (see perfbench/main.cc).
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), and so
do the per-run scratch directories, which each run removes again. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero without a result when the build fails, e.g. when the
library sources are missing.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                # A failed configure must not leave a cache that skips it next time.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(step))
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1
    command = [binary] + sys.argv[1:] + ["--work-root", os.path.join(build_dir, "work")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
