#!/usr/bin/env python3
"""Run one workload K times with different seeds and summarize its spread.

    python3 perfbench/repeat.py --workload audit_mix --runs 10 [--trace 0]
        [--save batch.json] [--baseline earlier.json]

Run from the repository root.  Each run is perfbench/run.py with seed
first_seed + k and BENCHMARK.json's run_seconds (override with --seconds).
Prints, per metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, then
lists every end_to_end metric whose spread exceeds its bound.

--save writes the batch's values per metric to a JSON file.  --baseline
reads such a file from an earlier batch (of the same or of the parent
code) and lists every end_to_end metric whose median got worse than the
baseline's by more than its bound.  Exits nonzero if a run fails, a spread
exceeds its bound or a median regressed beyond it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit("repeat: run with seed %d failed" % seed)
    values = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            values[parts[1]] = float(parts[2])
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save", help="write this batch's values here")
    parser.add_argument("--baseline", help="compare medians with this batch")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    gated = {m["name"]: m for m in spec["end_to_end"]}

    runs = []
    for k in range(args.runs):
        runs.append(run_once(args.workload, args.first_seed + k, seconds,
                             args.trace))
        print("run %d/%d done" % (k + 1, args.runs), file=sys.stderr)
    values = {name: [r[name] for r in runs if name in r] for name in runs[0]}
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values}, f)
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)["values"]

    over, worse = [], []
    print("%-38s %14s %14s %14s %8s %6s %9s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "vs base"))
    for name in sorted(values):
        if len(values[name]) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values[name], n=4)
        median = statistics.median(values[name])
        spread = (q3 - q1) / median if median else float("inf")
        metric = gated.get(name)
        flag = ""
        if metric is not None and spread > metric["bound"]:
            flag += " OVER"
            over.append(name)
        change = ""
        if name in baseline and statistics.median(baseline[name]):
            ratio = median / statistics.median(baseline[name]) - 1
            change = "%+8.3f" % ratio
            if metric is not None:
                loss = ratio if metric["better"] == "lower" else -ratio
                if loss > metric["bound"]:
                    flag += " WORSE"
                    worse.append(name)
        print("%-38s %14.6g %14.6g %14.6g %8.4f %6s %9s%s" %
              (name, median, q1, q3, spread,
               "" if metric is None else "%g" % metric["bound"], change, flag))
    if over:
        print("spread over bound: " + ", ".join(over))
    if worse:
        print("median worse than baseline beyond bound: " + ", ".join(worse))
    sys.exit(1 if over or worse else 0)


if __name__ == "__main__":
    main()
