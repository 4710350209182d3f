#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see METRICS.md).

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Workloads: pipeline, serve-hot, serve-churn. The first run configures and
builds perfbench/ (which builds the library from the repository root) into
.bench_build/perfbench; later runs only re-check the build. Build output goes
to stderr, so the last line of stdout is the benchmark's result line. The exit
code is the benchmark's; a failed build exits 2 without a result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fastbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "fastbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
