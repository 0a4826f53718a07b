#!/usr/bin/env python3
"""Builds the SAQL end-to-end benchmark from this checkout and runs it once.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark (e2ebench/CMakeLists.txt) compiles the engine sources of the
checkout it sits in into .bench_build/e2ebench, then runs one workload.
Build output goes to stderr; the benchmark's stdout passes through, ending
with one JSON line {"correct", "attempted", "failed", "metrics"}. Without
the engine sources the build fails and this exits non-zero, printing no
result.
"""

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK = os.path.join(ROOT, ".bench_build", "e2ebench-work")
# The first run in a checkout builds: it must end within 900 s, a later
# run (a no-op build) within 180 s.
BUILD_DEADLINE_S = 700
RUN_TIMEOUT_S = 170
USAGE = "usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>"


def parse(argv):
    args = {}
    if len(argv) % 2:
        return None
    for key, value in zip(argv[::2], argv[1::2]):
        if key not in ("--workload", "--seed", "--seconds", "--trace"):
            return None
        args[key] = value
    if set(args) != {"--workload", "--seed", "--seconds", "--trace"}:
        return None
    return args


def build():
    deadline = time.monotonic() + BUILD_DEADLINE_S
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "saql_e2e"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"build failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    args = parse(sys.argv[1:])
    if args is None:
        print(USAGE, file=sys.stderr)
        return 2
    if not build():
        return 1
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "saql_e2e")]
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [key, args[key]]
    cmd += ["--workdir", WORK]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
