#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload audit_mix --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds perfbench_e2e from source into
.bench_build/perfbench (Release; incremental after the first run), runs it,
and passes its report through.  The last stdout line is one JSON object
{correct, attempted, failed, metrics}: with --trace 0 the metrics are the
end_to_end metrics named in BENCHMARK.json, with --trace 1 the per_layer
ones.  Every metric the program measured is printed above it as
"metric <name> <value> <unit> <note>".  Exits nonzero on a wrong answer,
a failed build or a missing metric.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "perfbench_e2e")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark; returns True if it configured a fresh tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "CMakeLists.txt")):
        fail("repository sources (src/) not found; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    fresh = not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt"))
    if fresh:
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build output goes to stderr so stdout stays the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return fresh


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["audit_mix", "giant_component"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    started = time.monotonic()
    if build():
        # The first run in a checkout may spend its time building.
        started = time.monotonic()
    names = declared_metrics(args.trace)
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + WORK, "--commit=" + git_commit()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(10, RUN_TIMEOUT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark timed out")
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
