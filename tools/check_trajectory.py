#!/usr/bin/env python3
"""Validate perf/trajectory.jsonl, the committed record of perf pairs.

Each line is one JSON object: one workload's alternating parent/change
perfbench pairs for one PR.

  {"pr": 27, "parent_commit": "b479837", "workload": "hw_serve",
   "seeds": "1-10", "seconds": 25, "pairs": 10,
   "metrics": {"ops_per_sec": {"parent": {"median": 8.5e5, "iqr": 3e4},
                               "change": {"median": 9.9e5, "iqr": 2e4}},
               "setup_s": {...}, "peak_rss_mb": {...}}}

Checks:

  * every line holds exactly these keys, with the types shown;
  * `workload` is one of BENCHMARK.json's workloads, and `metrics`
    holds exactly its end-to-end metrics, in their units (1/s, s,
    MiB);
  * each side of each metric has a positive `median` and an `iqr`
    that is a non-negative number, or null where the source did not
    report quartiles;
  * `seeds` is "N" (every pair at seed N) or "A-B" (pair k at seed
    A + k - 1), and an "A-B" range spans `pairs` seeds;
  * (pr, workload) rows are unique and PR numbers never decrease.

Usage: check_trajectory.py [perf/trajectory.jsonl]

Exits 0 when the file passes, 1 otherwise.
"""

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEYS = {"pr", "parent_commit", "workload", "seeds", "seconds", "pairs",
        "metrics"}


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_side(where, side, errors):
    if not isinstance(side, dict) or set(side) != {"median", "iqr"}:
        errors.append(f"{where}: want {{median, iqr}}, got {side!r}")
        return
    if not is_number(side["median"]) or side["median"] <= 0:
        errors.append(f"{where}: median {side['median']!r} is not a "
                      f"positive number")
    iqr = side["iqr"]
    if iqr is not None and (not is_number(iqr) or iqr < 0):
        errors.append(f"{where}: iqr {iqr!r} is neither null nor a "
                      f"non-negative number")


def check_row(where, row, workloads, metrics, errors):
    if not isinstance(row, dict) or set(row) != KEYS:
        errors.append(f"{where}: want keys {sorted(KEYS)}, got "
                      f"{sorted(row) if isinstance(row, dict) else row!r}")
        return False
    for key in ("pr", "seconds", "pairs"):
        if not is_int(row[key]) or row[key] <= 0:
            errors.append(f"{where}: {key} {row[key]!r} is not a "
                          f"positive integer")
    if not (isinstance(row["parent_commit"], str) and
            re.fullmatch(r"[0-9a-f]{7,40}", row["parent_commit"])):
        errors.append(f"{where}: parent_commit {row['parent_commit']!r} "
                      f"is not a hex commit id")
    if row["workload"] not in workloads:
        errors.append(f"{where}: workload {row['workload']!r} is not in "
                      f"BENCHMARK.json")
    seeds = row["seeds"]
    m = re.fullmatch(r"(\d+)(?:-(\d+))?", seeds) \
        if isinstance(seeds, str) else None
    if m is None:
        errors.append(f"{where}: seeds {seeds!r} is not \"N\" or \"A-B\"")
    elif m.group(2) is not None and is_int(row["pairs"]) and \
            int(m.group(2)) - int(m.group(1)) + 1 != row["pairs"]:
        errors.append(f"{where}: seeds {seeds} do not span "
                      f"{row['pairs']} pairs")
    got = row["metrics"]
    if not isinstance(got, dict) or set(got) != metrics:
        errors.append(f"{where}: metrics must be exactly "
                      f"{sorted(metrics)}")
        return True
    for name, sides in got.items():
        if not isinstance(sides, dict) or set(sides) != {"parent",
                                                         "change"}:
            errors.append(f"{where}: {name} wants parent and change")
            continue
        for side in ("parent", "change"):
            check_side(f"{where}: {name}.{side}", sides[side], errors)
    return True


def main(argv):
    path = argv[1] if len(argv) > 1 else os.path.join(
        ROOT, "perf", "trajectory.jsonl")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}

    errors = []
    seen = set()
    last_pr = 0
    rows = 0
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            where = f"{path}:{number}"
            if not line.strip():
                errors.append(f"{where}: blank line")
                continue
            try:
                row = json.loads(line)
            except ValueError as e:
                errors.append(f"{where}: not JSON ({e})")
                continue
            if not check_row(where, row, workloads, metrics, errors):
                continue
            rows += 1
            key = (row["pr"], row["workload"])
            if key in seen:
                errors.append(f"{where}: a second row for PR {key[0]} "
                              f"{key[1]}")
            seen.add(key)
            if is_int(row["pr"]):
                if row["pr"] < last_pr:
                    errors.append(f"{where}: PR {row['pr']} after PR "
                                  f"{last_pr}")
                last_pr = max(last_pr, row["pr"])

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    prs = len({pr for pr, _ in seen})
    print(f"{path}: {rows} rows, {prs} PRs, {len(errors)} errors")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
