#!/usr/bin/env python3
"""Checkpoint/restore round trip of a binary that runs a vanilla and a
Contiguitas fleet (examples/fleet_study, bench/fleet_scale).

Runs the binary with CTG_CHECKPOINT=<dir> and then with
CTG_RESTORE=<dir>. Fails unless

  * validate_snapshot.py accepts both per-fleet snapshot sets,
    <dir>/vanilla and <dir>/contiguitas;
  * the checkpointing and restoring runs print no warning that
    checkpointing or restoring is disabled, or that a server is
    cold-starting, so every server of both fleets was written and
    restored;
  * with --same-report, a cold run, the checkpointing run and the
    restoring run print identical reports (only for binaries whose
    report carries no wall times).

This keeps the validator's format constants in step with the
simulator's: a version bump in src/sim/snapshot.hh that misses
tools/validate_snapshot.py fails here. Stdlib only.

Usage: tools/check_fleet_checkpoint.py [--same-report] <work-dir>
           <binary> [binary args ...]
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import validate_snapshot  # noqa: E402

FLEETS = ("vanilla", "contiguitas")


def run(command, extra_env):
    env = {k: v for k, v in os.environ.items()
           if k not in ("CTG_CHECKPOINT", "CTG_RESTORE")}
    env.update(extra_env)
    proc = subprocess.run(command, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {command[0]} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return proc.stdout, proc.stderr


def main(argv):
    args = argv[1:]
    same_report = bool(args) and args[0] == "--same-report"
    if same_report:
        args = args[1:]
    if len(args) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    work, command = args[0], args[1:]
    name = os.path.basename(command[0])
    ckpt = os.path.join(work, "ckpt")
    shutil.rmtree(ckpt, ignore_errors=True)

    saved, saved_err = run(command, {"CTG_CHECKPOINT": ckpt})
    for fleet in FLEETS:
        if validate_snapshot.main(
                ["validate_snapshot.py",
                 os.path.join(ckpt, fleet)]) != 0:
            print(f"FAIL {fleet} snapshot set does not validate")
            return 1
    warm, warm_err = run(command, {"CTG_RESTORE": ckpt})

    failures = 0
    for label, err in (("checkpointing", saved_err),
                       ("restoring", warm_err)):
        if "disabled" in err or "cold-starting" in err:
            print(f"FAIL {label} run warned:\n{err}")
            failures += 1
    if same_report:
        cold, _ = run(command, {})
        for label, out in (("checkpointed", saved), ("restored", warm)):
            if out != cold:
                print(f"FAIL {label} report differs from the cold one")
                failures += 1
    if failures:
        return 1
    shutil.rmtree(ckpt, ignore_errors=True)
    print(f"{name} round trip ok ({' '.join(command[1:])})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
