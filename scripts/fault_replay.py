#!/usr/bin/env python
"""Turn a fired-fault log into a pinned, replayable fault schedule.

Every fault the plane fires is appended to ``$REPRO_FAULT_LOG`` as one
JSON line (site, mode, per-site hit index, pid, time).  This helper
folds such a log back into a ``hits=``-pinned ``REPRO_FAULTS`` string
that re-fires exactly those faults at exactly those hit indices::

    python scripts/fault_replay.py faults.jsonl
    store.object_write:oserror@hits=3;store.object_write:torn@hits=1+7

Print it, export it, or let ``--run`` re-execute a command under it::

    python scripts/fault_replay.py faults.jsonl --run -- \\
        python -m repro campaign run all --scale quick

With ``--run`` the command inherits the pinned schedule via
``REPRO_FAULTS`` (and a fresh ``REPRO_FAULT_LOG`` when ``--log`` is
given), and this helper exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import faults  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="pin a fired-fault log into a replayable "
                    "REPRO_FAULTS schedule")
    parser.add_argument("log", help="fired-fault JSONL log "
                                    "(written via $REPRO_FAULT_LOG)")
    parser.add_argument("--log", dest="new_log", default=None,
                        metavar="PATH",
                        help="with --run: log the replayed run's "
                             "fired faults to PATH")
    parser.add_argument("--run", nargs=argparse.REMAINDER, default=None,
                        metavar="CMD",
                        help="re-execute CMD (everything after --run, "
                             "use -- to separate) with REPRO_FAULTS "
                             "set to the pinned schedule")
    args = parser.parse_args(argv)

    records = faults.read_log(args.log)
    if not records:
        print(f"no fired faults in {args.log}", file=sys.stderr)
        return 1
    schedule = faults.schedule_from_log(records)
    faults.parse_schedule(schedule)  # guarantee it round-trips

    if args.run is None:
        print(schedule)
        return 0

    command = [arg for arg in args.run if arg != "--"]
    if not command:
        parser.error("--run needs a command")
    env = dict(os.environ)
    env["REPRO_FAULTS"] = schedule
    if args.new_log:
        env["REPRO_FAULT_LOG"] = args.new_log
    print(f"replaying {len(records)} faults: REPRO_FAULTS={schedule}",
          file=sys.stderr)
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
