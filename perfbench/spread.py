#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3,4,5] [--seconds S] [--trace 0|1]

For every metric: the median of its values over the runs, and the
distance between their first and third quartiles as a share of that
median (statistics.quantiles, n=4).  A run that is not correct, or
fails a rep, is reported and makes the exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE))
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("seed %d: exit code %d" % (seed, out.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int, default=json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    values, bad = {}, 0
    for seed in [int(s) for s in a.seeds.split(",")]:
        r = run(a.workload, seed, a.seconds, a.trace)
        if not r["correct"] or r["failed"]:
            bad += 1
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, r["correct"], r["attempted"], r["failed"],
            " ".join("%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items() if a.trace == 0)))
        sys.stdout.flush()
        for k, v in r["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
        else:
            spread = 0.0
        print("%-40s median %-14.6g spread %.4f" % (k, med, spread))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
