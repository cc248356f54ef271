#!/usr/bin/env python3
"""Compare one fleet_scale perfbench run with the perf trajectory.

    python3 perfbench/run.py --workload fleet_scale --seed 1 \\
        --seconds 5 --trace 0 | tail -n 1 > run.json
    python3 tools/check_perf_drop.py run.json

RESULT is the last line run.py prints (its JSON object). The script
finds the last fleet_scale row of perf/trajectory.jsonl and compares
the run's ops_per_sec with that row's change median. A run more than
15 % below it prints a GitHub Actions `::warning::` line. It never
fails on a drop: the host that runs it (a CI runner) is not the host
the trajectory was measured on, so the gap says "look", not "broken".
It exits 1 only when an input is malformed or has no row to compare
with.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD = "fleet_scale"
THRESHOLD = 0.15


def last_change_median(trajectory_lines):
    """The ops_per_sec change median of the last fleet_scale row, or
    None when the trajectory has no such row."""
    median = None
    for line in trajectory_lines:
        if not line.strip():
            continue
        row = json.loads(line)
        if row["workload"] == WORKLOAD:
            median = row["metrics"]["ops_per_sec"]["change"]["median"]
    return median


def compare(ops_per_sec, reference):
    """(is_drop, message) for a run against a reference median."""
    ratio = ops_per_sec / reference
    message = (f"ops_per_sec {ops_per_sec:.6g} is {ratio:.3f}x the last "
               f"trajectory change median {reference:.6g}")
    return ratio < 1.0 - THRESHOLD, message


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("result", help="run.py's last output line, in a file")
    ap.add_argument("--trajectory",
                    default=os.path.join(ROOT, "perf", "trajectory.jsonl"))
    args = ap.parse_args(argv[1:])

    try:
        with open(args.result, encoding="utf-8") as f:
            result = json.load(f)
        ops = result["metrics"]["ops_per_sec"]["value"]
        with open(args.trajectory, encoding="utf-8") as f:
            reference = last_change_median(f)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"error: cannot read the inputs: {e}", file=sys.stderr)
        return 1
    if reference is None:
        print(f"error: no {WORKLOAD} row in {args.trajectory}",
              file=sys.stderr)
        return 1
    if not result.get("correct", False):
        print(f"::warning::{WORKLOAD}: the run is not correct "
              f"(digest or failed ops); its speed is not compared")
        return 0

    drop, message = compare(ops, reference)
    if drop:
        print(f"::warning::{WORKLOAD}: {message}, a drop of more "
              f"than {THRESHOLD:.0%} (the CI host is not the "
              f"trajectory host; check before trusting it)")
    else:
        print(f"{WORKLOAD}: {message}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
