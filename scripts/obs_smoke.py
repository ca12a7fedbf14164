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
3. **Disabled means free.**  With the plane off, a sensitized
   propagate on the compiled engine must cost within
   :data:`OVERHEAD_LIMIT` (2%) of a no-telemetry baseline -- measured
   in-process by interleaving min-of-k timings of the normal disabled
   path against ``repro.obs`` monkeypatched to unconditional no-ops
   (what "the import never existed" would cost), so machine noise
   hits both sides equally.

Exit code 0 = all invariants hold.  Wired into ``make obs-smoke``
(part of ``make tier1``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

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
#: Propagate calls per timing sample and samples per side.
OVERHEAD_REPS = 10
OVERHEAD_SAMPLES = 12


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


def measure_overhead() -> float:
    """Disabled-plane cost of one propagate vs a no-telemetry no-op.

    Interleaved min-of-k in one process: sample A times the shipped
    disabled path (module-flag check per span call), sample B the same
    call with ``repro.obs`` patched to unconditional no-ops.  The
    difference is exactly what having the telemetry plane *imported
    but off* costs.
    """
    import repro.obs as obs
    from repro.netlist.calibrate import calibrated_alu
    import numpy as np

    obs.reset()  # force the plane off even under a stray $REPRO_TRACE
    alu = calibrated_alu()
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 32, 513, dtype=np.uint64)
    b = rng.integers(0, 1 << 32, 513, dtype=np.uint64)
    prev, new = (a[:512], b[:512]), (a[1:], b[1:])
    def call() -> None:
        alu.propagate("l.add", prev, new, 0.7, "sensitized",
                      engine="compiled")

    null_span = obs.span("warmup")  # the shared no-op (plane is off)
    real = (obs.span, obs.counter, obs.flush)
    patched = (lambda name, **attrs: null_span,
               lambda name, value=1: None,
               lambda: None)

    def sample() -> float:
        start = time.perf_counter()
        for _ in range(OVERHEAD_REPS):
            call()
        return time.perf_counter() - start

    for _ in range(3):
        call()  # warm plan, workspace, delay tiles
    best_on = best_off = float("inf")
    for _ in range(OVERHEAD_SAMPLES):
        best_on = min(best_on, sample())
        obs.span, obs.counter, obs.flush = patched
        try:
            best_off = min(best_off, sample())
        finally:
            obs.span, obs.counter, obs.flush = real
    return best_on / best_off - 1.0


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
    overheads = []
    for attempt in range(OVERHEAD_ATTEMPTS):
        overhead = measure_overhead()
        overheads.append(overhead)
        print(f"  attempt {attempt + 1}: {overhead * 100:+.2f}% "
              f"(limit {OVERHEAD_LIMIT * 100:.0f}%)", flush=True)
        if overhead <= OVERHEAD_LIMIT:
            break
    else:
        raise SystemExit(
            f"FAIL: disabled telemetry costs "
            f"{min(overheads) * 100:.2f}% > "
            f"{OVERHEAD_LIMIT * 100:.0f}% on sensitized propagate")

    print("obs smoke: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
