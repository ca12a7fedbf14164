#!/usr/bin/env python
"""Perf-regression gate over the committed ``BENCH_engines.json``.

Reruns the engine micro-benchmarks (only the engine rows -- the
warm-store figure rows measure store plumbing, not engines) into a
scratch JSON, at the one block width ``benchmarks/bench_engines.py``
pins and ``make bench-baseline`` records at, then compares every
re-measured row's speedup against the committed trajectory:

every row (propagate/run_dta/run_point engine paths and the ISS
blocks) must hold ``speedup >= (1 - TOLERANCE) * committed`` with the
default 20 % tolerance: an engine change that costs more than that
fails the build.  The gate is one-sided: only regressions fail.  A
baseline recorded at another block width fails outright, and the
baseline's ``cpu_count`` is printed next to this host's, since the
ratios track the host.  Wired into ``make bench-check`` (part of
``make tier1``); knob::

    REPRO_BENCH_CHECK_TOL=0.2     # per-row tolerance

Exit code 0 = no row regressed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Rows rerun (warm-store figure rows excluded: they benchmark the
#: result store, which has its own smoke coverage).
ROW_TOKENS = ("propagate", "run_dta", "run_point", "iss")
ROW_FILTER = " or ".join(ROW_TOKENS)

TOLERANCE = float(os.environ.get("REPRO_BENCH_CHECK_TOL", "0.2"))


def _rerun(out_path: Path) -> dict:
    env = dict(os.environ,
               REPRO_BENCH_OUT=str(out_path),
               PYTHONPATH=os.pathsep.join(
                   [str(REPO / "src")]
                   + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    command = [sys.executable, "-m", "pytest",
               "benchmarks/bench_engines.py", "-q",
               "-k", ROW_FILTER, "-p", "no:cacheprovider"]
    proc = subprocess.run(command, cwd=REPO, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"bench-check: benchmark rerun failed "
                         f"(exit {proc.returncode})")
    return json.loads(out_path.read_text())


def main() -> int:
    baseline_path = REPO / "BENCH_engines.json"
    recorded = json.loads(baseline_path.read_text())
    baseline = recorded["results"]
    with tempfile.TemporaryDirectory(prefix="bench-check-") as tmp:
        rerun = _rerun(Path(tmp) / "rerun.json")
    measured = rerun["results"]

    print(f"bench-check: block={rerun['block']}, tolerance="
          f"{TOLERANCE:.0%}, cpu_count baseline="
          f"{recorded.get('cpu_count')} here={rerun['cpu_count']}")
    if recorded.get("block") != rerun["block"]:
        print(f"bench-check: the baseline was recorded at block="
              f"{recorded.get('block')}; rerun `make bench-baseline`")
        return 1
    regressions = []
    for name in sorted(set(measured) & set(baseline)):
        committed = baseline[name]["speedup"]
        fresh = measured[name]["speedup"]
        floor = (1.0 - TOLERANCE) * committed
        status = "ok" if fresh >= floor else "REGRESSED"
        print(f"  {name:48s} committed={committed:7.2f}x "
              f"measured={fresh:7.2f}x floor={floor:6.2f}x {status}")
        if fresh < floor:
            regressions.append(name)
    missing = [name for name in sorted(baseline)
               if name not in measured
               and any(token in name for token in ROW_TOKENS)]
    if missing:
        # A row the trajectory promises but the rerun no longer
        # produces is a silent loss of coverage, not a pass.
        print(f"bench-check: rows missing from the rerun: {missing}")
        return 1
    if regressions:
        print(f"bench-check: {len(regressions)} row(s) regressed "
              f"beyond tolerance: {regressions}")
        return 1
    print("bench-check: all speedups within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
