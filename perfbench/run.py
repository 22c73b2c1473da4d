#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read_cold --seed 1 --seconds 25 --trace 0

The first call configures and builds `.bench_build/` (the tqcover library
plus the `perfbench` program, Release); later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
program's JSON result. Every argument is passed to the program unchanged;
spans and the churn workload's temporary data dir live under
`.bench_build/`. Exits non-zero without a result if the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + [
        "--spans-dir", os.path.join(BUILD, "spans"),
        "--tmp-dir", os.path.join(BUILD, "tmp")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
