#!/usr/bin/env python3
"""Self-time profile of a span trace exported via CTG_TRACE_SPANS.

Folds the B/E span pairs of every track into one row per span name:
how often it ran, its inclusive wall time, and its self time (the
inclusive time minus the time spent in child spans on the same
track). Times come from each event's args.wall_us, the process wall
clock in microseconds; the event "ts" field is a per-track logical
clock and says nothing about duration. The inclusive column counts a
span only when no enclosing span on its track has the same name, so
recursive spans are not counted twice. Tracks (the main thread and
one per server) run concurrently, so the self times of different
tracks overlap in wall time: on a threaded fleet, the main track's
fleet.simulate is time spent waiting for the server tracks plus the
in-order merge of each window.

Usage: span_profile.py trace.json

Prints one row per span name, sorted by self time, largest first. Exits 1 when the
file holds no complete span, or when a span is left open or closed
out of order (run check_spans.py for the details).
"""

import argparse
import json
import sys


def profile(events):
    """Return ({name: [calls, inclusive_us, self_us]}, errors)."""
    rows = {}
    stacks = {}  # (pid, tid) -> [[name, begin_us, child_us], ...]
    errors = 0
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("B", "E"):
            continue
        wall = ev.get("args", {}).get("wall_us")
        if wall is None:
            errors += 1
            continue
        stack = stacks.setdefault((ev.get("pid"), ev.get("tid")), [])
        name = ev.get("name", "?")
        if ph == "B":
            stack.append([name, wall, 0])
            continue
        if not stack or stack[-1][0] != name:
            errors += 1
            continue
        _, begin, child = stack.pop()
        dur = max(0, wall - begin)
        row = rows.setdefault(name, [0, 0, 0])
        row[0] += 1
        if all(frame[0] != name for frame in stack):
            row[1] += dur
        row[2] += max(0, dur - child)
        if stack:
            stack[-1][2] += dur
    errors += sum(len(stack) for stack in stacks.values())
    return rows, errors


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace")
    args = ap.parse_args(argv[1:])

    with open(args.trace, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    rows, errors = profile(events)
    if not rows:
        print("%s: no complete span" % args.trace, file=sys.stderr)
        return 1

    total_self = sum(row[2] for row in rows.values())
    ranked = sorted(rows.items(), key=lambda kv: (-kv[1][2], kv[0]))
    width = max(len("span"), max(len(name) for name, _ in ranked))
    print("%-*s %10s %14s %14s %7s" % (width, "span", "calls",
                                       "incl_ms", "self_ms", "self%"))
    for name, (calls, incl, self_us) in ranked:
        print("%-*s %10d %14.3f %14.3f %6.1f%%"
              % (width, name, calls, incl / 1000.0, self_us / 1000.0,
                 100.0 * self_us / max(total_self, 1)))
    print("%d span names, %.3f ms self time in total"
          % (len(rows), total_self / 1000.0))
    if errors:
        print("%s: %d unmatched or unterminated span events"
              % (args.trace, errors), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
