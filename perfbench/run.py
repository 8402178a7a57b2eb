#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/perfbench (configured once, then brought up
to date on every run); its output goes to stderr. The benchmark binary then
prints its progress to stderr and, as the last line of stdout, the result
object {"correct", "attempted", "failed", "metrics"}. Bad arguments print
usage and exit 2; a failed build exits 1 without a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def parse_args():
    """Unknown flags exit 2 here; the binary validates the values."""
    parser = argparse.ArgumentParser(description="shrinksvm training and serving benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args()


def build():
    """Configures (once) and builds; returns False when either step fails."""
    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not step(["cmake", "-S", HERE, "-B", BUILD] + generator):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return step(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])


def main():
    args = parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
