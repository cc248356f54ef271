#!/usr/bin/env python3
"""Validate a span trace exported via CTG_TRACE_SPANS.

Checks that the file is well-formed Chrome trace_event JSON and that
the span structure honors the contracts DESIGN.md section 13
promises:

  * every "E" closes the innermost open "B" on its (pid, tid) track,
    and no track ends with an unclosed span;
  * timestamps are strictly increasing per track (the per-stream
    logical clock);
  * every "B" carries a span_id and its parent_span is exactly the
    span_id of the enclosing open span (0 at the root), i.e. the
    causal tree is connected;
  * every flow head ("f") pairs with a flow tail ("s") of the same
    id (a tail without a head is only a warning: the migration may
    legitimately still be in flight when the process exits).

With --require NAME (repeatable), each file must also hold at least
one span of that name.

The summary line reports otherData.dropped_events, the events the
simulator discarded at a capture or collector cap. A truncated trace
still passes: the spans that were kept are balanced.

Usage: check_spans.py [--require NAME ...] trace.json [more.json ...]

Exits 0 when every file passes, 1 otherwise.
"""

import argparse
import json
import sys


def check(path, required=()):
    errors = []
    warnings = []

    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        return ["traceEvents is not a list"], warnings, {}
    other = doc.get("otherData", {}) if isinstance(doc, dict) else {}

    stacks = {}     # (pid, tid) -> [(name, ts, span_id)]
    last_ts = {}    # (pid, tid) -> ts of the previous event
    flow_tails = {} # flow id -> count of "s"
    flow_heads = {} # flow id -> count of "f"
    stats = {"events": 0, "spans": 0, "instants": 0,
             "flows": 0, "max_depth": 0}
    names = set()    # names of the "B" events seen

    for n, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        stats["events"] += 1
        track = (ev.get("pid"), ev.get("tid"))
        name = ev.get("name", "?")
        ts = ev.get("ts")
        where = "event %d (%s %r tid %s)" % (n, ph, name, track[1])

        if not isinstance(ts, (int, float)):
            errors.append("%s: missing ts" % where)
            continue
        if track in last_ts and ts <= last_ts[track]:
            errors.append("%s: ts %s not strictly increasing "
                          "(previous %s)" % (where, ts,
                                             last_ts[track]))
        last_ts[track] = ts

        stack = stacks.setdefault(track, [])
        if ph == "B":
            stats["spans"] += 1
            names.add(name)
            args = ev.get("args", {})
            span_id = args.get("span_id")
            if span_id is None:
                errors.append("%s: B without span_id" % where)
                span_id = 0
            parent = args.get("parent_span", 0)
            expect = stack[-1][2] if stack else 0
            if parent != expect:
                errors.append("%s: parent_span %s but enclosing "
                              "span is %s" % (where, parent, expect))
            stack.append((name, ts, span_id))
            stats["max_depth"] = max(stats["max_depth"], len(stack))
        elif ph == "E":
            if not stack:
                errors.append("%s: E with no open span" % where)
            else:
                open_name, open_ts, _ = stack.pop()
                if open_name != name:
                    errors.append("%s: E closes %r but innermost "
                                  "open span is %r"
                                  % (where, name, open_name))
                if ts < open_ts:
                    errors.append("%s: E before its B" % where)
        elif ph == "i":
            stats["instants"] += 1
        elif ph == "s":
            stats["flows"] += 1
            flow_tails[ev.get("id")] = \
                flow_tails.get(ev.get("id"), 0) + 1
        elif ph == "f":
            flow_heads[ev.get("id")] = \
                flow_heads.get(ev.get("id"), 0) + 1
        else:
            errors.append("%s: unknown phase %r" % (where, ph))

    for track, stack in stacks.items():
        for name, _, _ in stack:
            errors.append("tid %s: span %r never closed"
                          % (track[1], name))
    for fid, n in flow_heads.items():
        if flow_tails.get(fid, 0) == 0:
            errors.append("flow %s: head (f) without tail (s)" % fid)
    for fid, n in flow_tails.items():
        if flow_heads.get(fid, 0) == 0:
            warnings.append("flow %s: tail (s) without head (f) — "
                            "in flight at exit?" % fid)

    for name in required:
        if name not in names:
            errors.append("no span named %r" % name)

    stats["tracks"] = len(last_ts)
    stats["dropped"] = other.get("dropped_events", 0)
    return errors, warnings, stats


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    ap.add_argument("--require", action="append", default=[],
                    metavar="NAME",
                    help="fail unless each file holds a span of this "
                         "name (repeatable)")
    ap.add_argument("traces", nargs="+", metavar="trace.json")
    args = ap.parse_args(argv[1:])
    failed = False
    for path in args.traces:
        try:
            errors, warnings, stats = check(path, args.require)
        except (OSError, ValueError) as exc:
            print("%s: FAIL: %s" % (path, exc))
            failed = True
            continue
        for w in warnings[:10]:
            print("%s: warning: %s" % (path, w))
        if errors:
            failed = True
            for e in errors[:20]:
                print("%s: error: %s" % (path, e))
            print("%s: FAIL (%d errors)" % (path, len(errors)))
        else:
            print("%s: OK — %d events on %d tracks, %d spans "
                  "(max depth %d), %d instants, %d flows, "
                  "%d dropped"
                  % (path, stats["events"], stats["tracks"],
                     stats["spans"], stats["max_depth"],
                     stats["instants"], stats["flows"],
                     stats["dropped"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
