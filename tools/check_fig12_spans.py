#!/usr/bin/env python3
"""Span trace of bench/fig12 is valid and independent of CTG_THREADS.

Runs fig12_potential_contiguity twice, side by side, under
CTG_TRACE_SPANS, at CTG_THREADS=1 and at CTG_THREADS=4, with CTG_TRACE
restricting the trace to a few subsystems so the files stay small.
Fails unless

  * both runs exit 0 and print the same report (minus the executor
    line, which names the thread count and wall time);
  * check_spans.py accepts both traces;
  * the two event sequences are equal once the wall-clock stamp
    (args.wall_us, the one non-deterministic field) is dropped.

Each of fig12's cells records into its own spans::Capture and the
captures are published in cell order, so parallel workers never
share a stream. Stdlib only.

Usage: tools/check_fig12_spans.py <fig12_potential_contiguity> <work-dir>
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import check_spans  # noqa: E402

FLAGS = "Region,Compaction,Fleet,Faults"
THREADS = (1, 4)


def start(binary, threads, trace):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CTG_")}
    env.update({"CTG_THREADS": str(threads), "CTG_TRACE": FLAGS,
                "CTG_TRACE_SPANS": trace})
    return subprocess.Popen([binary], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def report(proc, threads):
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"FAIL fig12 at CTG_THREADS={threads} "
                         f"exited {proc.returncode}:\n{err}")
    return [line for line in out.splitlines()
            if not line.startswith("[executor]")]


def events(path):
    with open(path, "r", encoding="utf-8") as f:
        out = json.load(f)["traceEvents"]
    for ev in out:
        ev.get("args", {}).pop("wall_us", None)
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, work = argv[1], argv[2]
    os.makedirs(work, exist_ok=True)
    traces = [os.path.join(work, f"fig12_spans_t{t}.json")
              for t in THREADS]

    # Both runs at once: the single-threaded one sets the wall time.
    procs = [start(binary, t, path) for t, path in zip(THREADS, traces)]
    reports = [report(p, t) for p, t in zip(procs, THREADS)]
    failures = 0
    if reports[0] != reports[1]:
        print("FAIL reports differ between thread counts")
        failures += 1
    for path in traces:
        errors, _, stats = check_spans.check(path)
        for e in errors[:20]:
            print(f"{path}: error: {e}")
        if errors:
            failures += 1
    sequences = [events(path) for path in traces]
    if sequences[0] != sequences[1]:
        first = next((i for i, (a, b) in
                      enumerate(zip(*sequences)) if a != b),
                     min(map(len, sequences)))
        print(f"FAIL span streams differ: {len(sequences[0])} vs "
              f"{len(sequences[1])} events, first difference at "
              f"event {first}")
        failures += 1
    if failures:
        return 1
    for path in traces:
        os.remove(path)
    print(f"fig12 span trace ok: {stats['events']} events on "
          f"{stats['tracks']} tracks, equal at CTG_THREADS="
          f"{' and '.join(map(str, THREADS))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
