#!/usr/bin/env python3
"""Checks that BENCH_*.json reports take the one layout bench/harness.h
writes:

  * exactly the top-level keys host, bench, workload, results, ratios;
  * `results` is a list of rows, each a string `name` plus numbers;
  * `ratios` holds only numbers.

Usage: scripts/check_bench_reports.py REPORT.json [REPORT.json ...]
Exits nonzero, naming every violation, when any report breaks the layout.
"""

import json
import sys

KEYS = ["host", "bench", "workload", "results", "ratios"]


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def violations(report):
    if not isinstance(report, dict):
        yield "the report is not a JSON object"
        return
    if sorted(report) != sorted(KEYS):
        yield f"top-level keys are {sorted(report)}, expected {sorted(KEYS)}"
        return
    if not isinstance(report["host"], dict) or not is_number(
            report["host"].get("nproc")):
        yield "host carries no numeric nproc"
    if not isinstance(report["bench"], str):
        yield "bench is not a string"
    if not isinstance(report["workload"], dict):
        yield "workload is not an object"
    if not isinstance(report["results"], list):
        yield "results is not a list"
    else:
        for k, row in enumerate(report["results"]):
            if not isinstance(row, dict) or not isinstance(
                    row.get("name"), str):
                yield f"results[{k}] has no string name"
                continue
            for key, value in row.items():
                if key != "name" and not is_number(value):
                    yield f"results[{k}].{key} is not a number"
    if not isinstance(report["ratios"], dict):
        yield "ratios is not an object"
    else:
        for key, value in report["ratios"].items():
            if not is_number(value):
                yield f"ratios.{key} is not a number"


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        try:
            with open(path) as f:
                report = json.load(f)
        except (OSError, ValueError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            failed = True
            continue
        for problem in violations(report):
            print(f"{path}: {problem}", file=sys.stderr)
            failed = True
    if not failed:
        print(f"check_bench_reports: {len(paths)} reports take the one layout")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
