#!/usr/bin/env python
"""Regenerate ``BENCH_trace.jsonl`` and re-derive the ceiling numbers.

The ROADMAP's ceiling analysis quotes the share of a serial
native-f32 multiplier propagate spent outside the C kernel.  It used
to come from one-off timers that were deleted after reading; this
driver re-measures it through the permanent telemetry plane and
commits the evidence, so the number in ROADMAP.md stays one ``make
trace-baseline`` away from its raw data.

Writes ``BENCH_trace.jsonl`` (a merged obs trace of the runs below)
and prints the derived numbers for a serial native-f32 (fallback:
compiled-f32) sensitized multiplier propagate at block=512: the
per-stage spans give ``(stimulus + extract) / whole-call`` on the
numpy route, and the single ``repro_run`` span gives the Python wall
around it on the native route.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro import native, obs  # noqa: E402
from repro.experiments.context import ExperimentContext  # noqa: E402
from repro.experiments.scale import get_scale  # noqa: E402

BLOCK = 512
REPS = 5
OUT = REPO / "BENCH_trace.jsonl"


def main() -> int:
    engine = ("native-f32" if native.native_available()
              else "compiled-f32")
    alu = ExperimentContext.create(get_scale("quick"), seed=2016).alu
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 32, BLOCK + 1, dtype=np.uint64)
    b = rng.integers(0, 1 << 32, BLOCK + 1, dtype=np.uint64)
    prev, new = (a[:BLOCK], b[:BLOCK]), (a[1:], b[1:])

    def run(eng):
        return alu.propagate("l.mul", prev, new, 0.7, "sensitized",
                             engine=eng)

    # Warm untraced: plan compile, native build, delay tiles -- the
    # committed trace should show steady-state calls, not first-call
    # compilation.
    run(engine)

    obs.configure(OUT)
    for _ in range(REPS):
        run(engine)
    obs.shutdown()

    records = obs.read_trace(OUT)
    spans = list(obs.spans(records))
    by_parent: dict[str, list] = {}
    for span in spans:
        by_parent.setdefault(span.get("parent"), []).append(span)

    tops = [s for s in spans if s["name"] == "circuit.propagate"
            and s.get("a", {}).get("engine") == engine]
    stage_us = {"propagate.stimulus": 0.0, "propagate.extract": 0.0}
    kernel_us = 0.0
    modes = set()
    total_us = sum(s["dur"] for s in tops)
    for top in tops:
        for child in by_parent.get(top["id"], []):
            if child["name"] in stage_us:
                stage_us[child["name"]] += child["dur"]
            elif child["name"] == "propagate.kernel":
                kernel_us += child["dur"]
                modes.add(child.get("a", {}).get("mode"))
    print(f"serial {engine} l.mul propagate, {len(tops)} calls:")
    if modes == {"native-fused"}:
        # One repro_run crossing carries stimulus + levels + extract;
        # everything around it is the remaining Python wall (stimulus
        # word packing, validation, workspace lookup, span overhead).
        residual = (total_us - kernel_us) / total_us if total_us else 0.0
        print(f"  python wall around the repro_run call: {residual:6.1%}")
    else:
        share = sum(stage_us.values()) / total_us if total_us else 0.0
        print(f"  stimulus+extract share of whole call: {share:6.1%}  "
              f"(stimulus {stage_us['propagate.stimulus'] / total_us:.1%},"
              f" extract {stage_us['propagate.extract'] / total_us:.1%})")
    print(f"trace-baseline: wrote {OUT} ({len(records)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
