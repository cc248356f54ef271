#!/usr/bin/env python3
"""Checkpoint/restore round trip of examples/fleet_study.

Runs the example three times: cold, with CTG_CHECKPOINT=<dir> and
with CTG_RESTORE=<dir>. Fails unless

  * all three reports are identical;
  * validate_snapshot.py accepts both per-policy snapshot sets,
    <dir>/vanilla and <dir>/contiguitas;
  * the checkpointing and restoring runs print no warning, so every
    server of both fleets was written and restored rather than
    cold-started (a "restore ... disabled" or "cold-starting" line
    fails the check).

This keeps the validator's format constants in step with the
simulator's: a version bump in src/sim/snapshot.hh that misses
tools/validate_snapshot.py fails here. Stdlib only.

Usage: tools/check_fleet_checkpoint.py <fleet_study> <work-dir> [servers]
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import validate_snapshot  # noqa: E402

POLICIES = ("vanilla", "contiguitas")


def run(binary, servers, extra_env):
    env = {k: v for k, v in os.environ.items()
           if k not in ("CTG_CHECKPOINT", "CTG_RESTORE")}
    env.update(extra_env)
    proc = subprocess.run([binary, str(servers)], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {binary} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return proc.stdout, proc.stderr


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, work = argv[1], argv[2]
    servers = int(argv[3]) if len(argv) == 4 else 3
    ckpt = os.path.join(work, "ckpt")
    shutil.rmtree(ckpt, ignore_errors=True)

    cold, _ = run(binary, servers, {})
    saved, saved_err = run(binary, servers, {"CTG_CHECKPOINT": ckpt})
    for policy in POLICIES:
        if validate_snapshot.main(
                ["validate_snapshot.py",
                 os.path.join(ckpt, policy)]) != 0:
            print(f"FAIL {policy} snapshot set does not validate")
            return 1
    warm, warm_err = run(binary, servers, {"CTG_RESTORE": ckpt})

    failures = 0
    for name, out, err in (("checkpointed", saved, saved_err),
                           ("restored", warm, warm_err)):
        if out != cold:
            print(f"FAIL {name} report differs from the cold one")
            failures += 1
        if "disabled" in err or "cold-starting" in err:
            print(f"FAIL {name} run warned:\n{err}")
            failures += 1
    if failures:
        return 1
    shutil.rmtree(ckpt, ignore_errors=True)
    print(f"fleet_study round trip ok ({servers} servers per policy)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
