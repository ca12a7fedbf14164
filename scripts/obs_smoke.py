#!/usr/bin/env python
"""Telemetry-plane smoke test: trace fidelity + disabled-path cost.

Proves the observability layer's two load-bearing promises with real
processes:

1. **Telemetry never changes results.**  A quick-scale
   ``repro campaign run all --trace`` (``--jobs 2`` fork dispatch)
   must produce **byte-identical** rendered stdout to the same
   campaign without ``--trace``.
2. **The merged trace is real.**  ``repro trace export`` on the
   recorded trace must yield well-formed Chrome ``trace_event`` JSON
   whose complete events cover the store, campaign, circuit and
   propagate layers, coming from the parent *and* at least one forked
   worker pid; ``repro stats`` must render it.
3. **Disabled means free.**  With the plane off, two loops must each
   cost within :data:`OVERHEAD_LIMIT` (2%) of a no-telemetry baseline:
   a sensitized propagate on the compiled engine, and a Monte-Carlo
   trial of the paper-size 16-bit matmul that runs in the ISS on its
   fault schedule.  Each is measured in-process as the median of
   paired ratios: each pair times the normal disabled path and
   ``repro.obs`` monkeypatched to unconditional no-ops (what "the
   import never existed" would cost) back to back, so machine noise
   hits both sides of a pair alike.

Exit code 0 = all invariants hold.  Wired into ``make obs-smoke``
(part of ``make tier1``).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SCALE = "quick"
SEED = "2016"
JOBS = "2"

#: Disabled-path overhead ceiling (fraction of the baseline call).
OVERHEAD_LIMIT = 0.02
#: Interleaved timing attempts before declaring the gate failed: the
#: quantity under test is deterministic, the box is not (single-core
#: containers swing 30-40% between back-to-back runs).
OVERHEAD_ATTEMPTS = 3
#: Propagate calls per timing sample.
OVERHEAD_REPS = 10
#: Paired samples per timed loop.
OVERHEAD_PAIRS = 61


def repro(args: list[str],
          check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{ROOT / 'src'}" + (
        f":{env['PYTHONPATH']}" if env.get("PYTHONPATH") else "")
    env.pop("REPRO_TRACE", None)  # the flags under test, not the env
    command = [sys.executable, "-m", "repro", *args]
    result = subprocess.run(command, capture_output=True, text=True,
                            env=env)
    if check and result.returncode != 0:
        sys.stderr.write(result.stdout + result.stderr)
        raise SystemExit(f"FAIL: {' '.join(command)} exited "
                         f"{result.returncode}")
    return result


def campaign(store: Path, extra: list[str]) -> str:
    result = repro(["campaign", "run", "all", "--scale", SCALE,
                    "--seed", SEED, "--jobs", JOBS,
                    "--store", str(store), *extra])
    return result.stdout


def check_export(trace: Path) -> None:
    out = trace.with_suffix(".chrome.json")
    repro(["trace", "export", str(trace), "--out", str(out)])
    chrome = json.loads(out.read_text())  # must parse: well-formed
    if chrome.get("displayTimeUnit") != "ms":
        raise SystemExit("FAIL: export lacks displayTimeUnit=ms")
    events = chrome["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    if not complete:
        raise SystemExit("FAIL: export has no complete span events")
    for event in complete:
        for field in ("name", "cat", "pid", "ts", "dur"):
            if field not in event:
                raise SystemExit(f"FAIL: span event missing {field!r}: "
                                 f"{event}")
    cats = {e["cat"] for e in complete}
    required = {"store", "campaign", "circuit", "propagate"}
    missing = required - cats
    if missing:
        raise SystemExit(f"FAIL: trace lacks span categories "
                         f"{sorted(missing)} (has {sorted(cats)})")
    pids = {e["pid"] for e in complete}
    if len(pids) < 2:
        raise SystemExit(f"FAIL: spans come from {len(pids)} pid(s); "
                         f"need the parent and >=1 worker")
    if not any(e["ph"] == "M" for e in events):
        raise SystemExit("FAIL: export lacks process metadata events")
    if not any(e["ph"] == "C" for e in events):
        raise SystemExit("FAIL: export lacks counter events")
    stats = repro(["stats", str(trace)])
    if "span" not in stats.stdout \
            or "campaign.unit" not in stats.stdout:
        raise SystemExit("FAIL: `repro stats` output looks empty:\n"
                         + stats.stdout)


def propagate_call() -> Callable[[], object]:
    """One sensitized compiled-engine propagate of 512 vectors."""
    from repro.netlist.calibrate import calibrated_alu
    import numpy as np

    alu = calibrated_alu()
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 32, 513, dtype=np.uint64)
    b = rng.integers(0, 1 << 32, 513, dtype=np.uint64)
    prev, new = (a[:512], b[:512]), (a[1:], b[1:])
    return lambda: alu.propagate("l.add", prev, new, 0.7, "sensitized",
                                 engine="compiled")


def scheduled_trial_call() -> Callable[[], object]:
    """One scheduled paper 16-bit matmul trial: its ``Cpu.run`` is the
    block loop, hook-free up to the trial's first fault."""
    from repro.bench.suite import build_kernel
    from repro.fi.model_a import FixedProbabilityInjector
    from repro.mc.runner import run_trial, trial_budget
    from repro.sim.cpu import Cpu
    from repro.sim.machine import MachineConfig
    import numpy as np

    kernel = build_kernel("mat_mult_16bit", "paper")
    cpu = Cpu(kernel.program,
              config=MachineConfig().with_max_cycles(trial_budget(kernel)))

    def call():
        injector = FixedProbabilityInjector(
            1e-6, rng=np.random.default_rng(1))
        return run_trial(kernel, injector, cpu=cpu)

    if not call().fault_count:
        raise SystemExit("FAIL: the timed trial has no fault, so it "
                         "never reaches the ISS")
    return call


def measure_overhead(call: Callable[[], object], reps: int) -> float:
    """Disabled-plane cost of ``call`` vs a no-telemetry no-op.

    Each pair times ``reps`` calls on the shipped disabled path
    (module-flag check per span or counter call) and ``reps`` calls
    with ``repro.obs`` patched to unconditional no-ops, in alternating
    order; the result is the median of the pairs' ratios, less one.
    That is exactly what having the telemetry plane *imported but off*
    costs.
    """
    import repro.obs as obs

    obs.reset()  # force the plane off even under a stray $REPRO_TRACE
    null_span = obs.span("warmup")  # the shared no-op (plane is off)
    real = (obs.span, obs.counter, obs.flush)
    patched = (lambda name, **attrs: null_span,
               lambda name, value=1: None,
               lambda: None)

    def sample(plane: tuple) -> float:
        obs.span, obs.counter, obs.flush = plane
        try:
            start = time.perf_counter()
            for _ in range(reps):
                call()
            return time.perf_counter() - start
        finally:
            obs.span, obs.counter, obs.flush = real

    for _ in range(3):
        call()  # warm plans, workspaces, bound code
    ratios = []
    for pair in range(OVERHEAD_PAIRS):
        if pair % 2:
            off, on = sample(patched), sample(real)
        else:
            on, off = sample(real), sample(patched)
        ratios.append(on / off)
    return statistics.median(ratios) - 1.0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as tmp:
        trace = Path(tmp) / "t.jsonl"

        print("[1/4] traced `campaign run all` (--jobs 2) ...",
              flush=True)
        traced = campaign(Path(tmp) / "store-b",
                          ["--trace", str(trace)])
        if not trace.exists():
            raise SystemExit("FAIL: --trace produced no merged trace")
        leftovers = list(trace.parent.glob(f"{trace.name}.pid-*"))
        if leftovers:
            raise SystemExit(f"FAIL: unmerged part files left behind: "
                             f"{leftovers}")

        print("[2/4] untraced rerun; rendered output must be "
              "byte-identical ...", flush=True)
        untraced = campaign(Path(tmp) / "store-a", [])
        if traced != untraced:
            raise SystemExit("FAIL: tracing changed the campaign's "
                             "rendered output")

        print("[3/4] export to Chrome JSON + stats ...", flush=True)
        check_export(trace)

    print("[4/4] disabled-path overhead gate ...", flush=True)
    loops = {"sensitized propagate": (propagate_call(), OVERHEAD_REPS),
             "scheduled ISS trial": (scheduled_trial_call(), 1)}
    for attempt in range(OVERHEAD_ATTEMPTS):
        overheads = {name: measure_overhead(call, reps)
                     for name, (call, reps) in loops.items()}
        print(f"  attempt {attempt + 1}: " + ", ".join(
            f"{name} {overhead * 100:+.2f}%"
            for name, overhead in overheads.items())
            + f" (limit {OVERHEAD_LIMIT * 100:.0f}%)", flush=True)
        if max(overheads.values()) <= OVERHEAD_LIMIT:
            break
    else:
        name = max(overheads, key=overheads.get)
        raise SystemExit(
            f"FAIL: disabled telemetry costs "
            f"{overheads[name] * 100:.2f}% > "
            f"{OVERHEAD_LIMIT * 100:.0f}% on {name}")

    print("obs smoke: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
