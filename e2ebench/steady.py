#!/usr/bin/env python3
"""Steadiness tool: runs each workload several times and reports, per
end-to-end metric, the median and the quartile spread against its bound.

    python3 e2ebench/steady.py [--runs 10] [--seed0 1] [--workloads a,b]
                               [--out set.json] [--against earlier.json]

Each run uses another seed (seed0, seed0+1, ...). The spread is the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median; a metric is steady when it is below a
third of its bound. With
--against, each median is also compared with an earlier set: it must not
be worse by more than the bound. Records nproc and the git sha.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--against", default="")
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    metrics = bench["end_to_end"]
    earlier = {}
    if opts.against:
        with open(opts.against) as f:
            earlier = json.load(f)["medians"]

    print(f"nproc {os.cpu_count()}  git {git_sha()}  runs {opts.runs}  "
          f"seconds {bench['run_seconds']}")
    medians = {}
    samples = {}
    steady = True
    for name in names:
        values = {m["name"]: [] for m in metrics}
        for i in range(opts.runs):
            got = run_once(name, opts.seed0 + i, bench["run_seconds"])
            for m in metrics:
                values[m["name"]].append(got[m["name"]])
        samples[name] = values
        print(f"\n{name}")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            medians[f"{name}/{m['name']}"] = med
            verdict = "ok"
            if spread > m["bound"] / 3:
                verdict = "WIDE" if spread > m["bound"] else "over 1/3 bound"
                steady = False
            prev = earlier.get(f"{name}/{m['name']}")
            if prev:
                worse = (med - prev) / prev if m["better"] == "lower" \
                    else (prev - med) / prev
                verdict += f"; vs earlier {worse:+.1%}"
                if worse > m["bound"]:
                    verdict += " REGRESSED"
                    steady = False
            print(f"  {m['name']:18} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {m['bound']:6.2f}  {verdict}")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({"git": git_sha(), "nproc": os.cpu_count(),
                       "medians": medians, "samples": samples}, f, indent=1)
    print("\nSTEADY" if steady else "\nNOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
