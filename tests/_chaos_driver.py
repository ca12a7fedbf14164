"""Subprocess driver for the kill-resume matrix test.

Runs a tiny fig7 campaign over the ``--jobs 2`` fork dispatch against
the store directory given as ``argv[1]`` and writes the rendered
output to stdout.  The test harness sets ``REPRO_FAULTS`` to SIGKILL
this process (or one of its forked workers) at one injection site per
matrix cell, then reruns the driver fault-free and requires
byte-identical rendered output.

Not a test module (the leading underscore keeps pytest away).
"""

from __future__ import annotations

import sys

from repro.campaign import run_campaign
from repro.experiments.scale import Scale
from repro.store import ResultStore

TINY = Scale(name="tiny", trials=4, freq_points=4, kernel_scale="quick",
             char_cycles=128, fig4_samples=128, voltage_points=3)

SEED = 2016


def main() -> int:
    store_dir = sys.argv[1]
    if "--fabric-workers" in sys.argv:
        # Lease-fabric dispatch: forked workers race for unit batches
        # on the shared store (a directory here -- PUT-if-absent is
        # os.link-atomic, so the ledger needs no HTTP service).
        workers = int(sys.argv[sys.argv.index("--fabric-workers") + 1])
        report = run_campaign("fig7", TINY, seed=SEED,
                              store=ResultStore(store_dir),
                              fabric_workers=workers)
    else:
        report = run_campaign("fig7", TINY, seed=SEED,
                              store=ResultStore(store_dir), jobs=2)
    sys.stdout.write(report.rendered)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
