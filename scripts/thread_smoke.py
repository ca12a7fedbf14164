#!/usr/bin/env python
"""Thread-sharded native propagate smoke (``make thread-smoke``).

The zero-IPC thread pool shards a native propagate's block axis over
column views of one workspace -- no pipes, no pickling, no shared
mappings.  That is only a win if it is *invisible*: this smoke proves,
on a real calibrated-ALU multiplier propagate,

1. **Byte-diff vs serial**: thread-sharded runs at 2 and 4 workers are
   byte-identical (``tobytes()`` equality, values and arrivals, both
   glitch models, f64 and f32) to the serial native engine, and the
   pool spawns its threads exactly once across the sweep.
2. **DTA artifact invariance**: a blocked ``run_dta`` characterization
   produces a byte-identical critical-period matrix with and without
   the thread pool -- shard mode is never a results knob.
3. **Fault-injected fallback**: an injected ``threads.shard`` fault
   loses one shard; the pool heals it serially in the dispatching
   thread and the run stays byte-identical to serial.
4. **Telemetry**: the sharded run emits ``threads.shard`` spans that
   ``repro stats`` aggregates into the thread-utilization block.
5. **Sanitized variant**: the thread-sharding tests re-run against the
   ASan+UBSan instrumented kernels (skipped with a notice when the
   toolchain lacks the sanitizer runtimes) -- column-sliced pointer
   arithmetic is exactly where an off-by-one would hide.

Skips entirely (exit 0) when the machine has no working C compiler:
thread sharding only routes native engines, so there is nothing to
shard without the backend.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from repro import faults, native, obs, parallel  # noqa: E402

N_VECTORS = 384  # >= 4 workers x 64 min_shard_vectors: always shards


def _operands():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 1 << 32, N_VECTORS + 1, dtype=np.uint64)
    b = rng.integers(0, 1 << 32, N_VECTORS + 1, dtype=np.uint64)
    return a, b


def _propagate(alu, engine: str):
    a, b = _operands()
    blobs = []
    for glitch_model in ("sensitized", "value-change"):
        values, arrivals = alu.propagate(
            "l.mul", (a[:N_VECTORS], b[:N_VECTORS]), (a[1:], b[1:]),
            0.7, glitch_model, engine=engine)
        blobs.append((values.tobytes(), arrivals.tobytes()))
    return blobs


def _pythonpath_env(**extra: str) -> dict[str, str]:
    return {**os.environ, **extra,
            "PYTHONPATH": SRC + (os.pathsep + os.environ["PYTHONPATH"]
                                 if os.environ.get("PYTHONPATH") else "")}


def _sanitized_leg() -> None:
    """Re-run the thread tests against ASan+UBSan kernels, if possible."""
    probe = native.probe_compiler()
    with tempfile.TemporaryDirectory(prefix="thread-smoke-san-") as tmp:
        env = _pythonpath_env(REPRO_CC_SANITIZE="1",
                              REPRO_NATIVE_CACHE=tmp,
                              ASAN_OPTIONS="detect_leaks=0")
        probed = subprocess.run(
            [sys.executable, "-c",
             "from repro.native import build;"
             "p = build.probe_compiler();"
             "raise SystemExit(0 if p.ok else 3)"],
            env=env, cwd=REPO, capture_output=True, text=True)
        if probed.returncode == 3:
            print("thread-smoke: sanitized leg SKIPPED -- toolchain "
                  "cannot build sanitized objects")
            return
        assert probed.returncode == 0, probed.stderr
        preload = []
        for lib in ("libasan.so", "libubsan.so"):
            found = subprocess.run(
                [probe.exe, f"-print-file-name={lib}"],
                capture_output=True, text=True).stdout.strip()
            if found and Path(found).is_file():
                preload.append(found)
        if not preload or "libasan" not in preload[0]:
            print("thread-smoke: sanitized leg SKIPPED -- libasan.so "
                  "not found next to the toolchain")
            return
        env["LD_PRELOAD"] = os.pathsep.join(preload)
        loaded = subprocess.run(
            [sys.executable, "-c",
             "from repro.native import build;"
             "build.load_kernels('float64')"],
            env=env, cwd=REPO, capture_output=True, text=True)
        if loaded.returncode != 0:
            print("thread-smoke: sanitized leg SKIPPED -- ASan runtime "
                  "could not be preloaded into python")
            return
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "tests/test_engine_equivalence.py", "-k", "thread or sharded"],
            env=env, cwd=REPO)
        assert tests.returncode == 0, \
            "thread-sharding tests failed under ASan/UBSan"
        print("thread-smoke: thread-sharding tests green under "
              "ASan+UBSan instrumented kernels")


def main() -> int:
    reason = native.unavailable_reason()
    if reason is not None:
        print(f"thread-smoke: SKIPPED -- backend unavailable: {reason}")
        return 0

    from repro.netlist.calibrate import calibrated_alu
    from repro.timing.dta import run_dta

    alu = calibrated_alu()
    serial = _propagate(alu, "compiled-native")
    serial_f32 = _propagate(alu, "native-f32")

    # 1. byte-diff vs serial at 2 and 4 workers
    for workers in (2, 4):
        try:
            pool = parallel.configure_thread_pool(workers)
            sharded = _propagate(alu, "compiled-native")
            sharded_f32 = _propagate(alu, "native-f32")
            assert pool.spawn_count == 1, \
                "warm sharded calls must not respawn threads"
        finally:
            parallel.shutdown_thread_pool()
        assert sharded == serial, \
            f"thread-sharded f64 diverged from serial at {workers} workers"
        assert sharded_f32 == serial_f32, \
            f"thread-sharded f32 diverged from serial at {workers} workers"
        print(f"thread-smoke: {workers}-worker shards byte-identical to "
              f"serial (f64 + f32, both glitch models)")

    # 2. DTA artifact invariance
    dta_serial = run_dta(alu, "l.mul", 192, block=96,
                         engine="compiled-native")
    try:
        parallel.configure_thread_pool(4)
        dta_sharded = run_dta(alu, "l.mul", 192, block=96,
                              engine="compiled-native")
    finally:
        parallel.shutdown_thread_pool()
    assert dta_sharded.critical_ps.tobytes() \
        == dta_serial.critical_ps.tobytes(), \
        "thread sharding changed a DTA critical-period matrix"
    assert dta_sharded.values.tobytes() == dta_serial.values.tobytes()
    print("thread-smoke: run_dta critical periods byte-identical with "
          "and without the thread pool")

    # 3. fault-injected serial fallback
    try:
        plane = faults.configure("threads.shard:raise@after=1")
        parallel.configure_thread_pool(4)
        healed = _propagate(alu, "compiled-native")
        fired = [(r["site"], r["mode"]) for r in plane.fired]
        assert fired == [("threads.shard", "raise")], fired
    finally:
        parallel.shutdown_thread_pool()
        faults.reset()
    assert healed == serial, \
        "healed thread-sharded run diverged from serial"
    print("thread-smoke: injected threads.shard fault healed serially, "
          "byte-identical output")

    # 4. thread spans feed the stats aggregation
    with tempfile.TemporaryDirectory(prefix="thread-smoke-obs-") as tmp:
        trace = Path(tmp) / "trace.jsonl"
        try:
            obs.configure(trace)
            parallel.configure_thread_pool(4)
            _propagate(alu, "compiled-native")
        finally:
            parallel.shutdown_thread_pool()
            obs.shutdown()
        records = obs.read_trace(trace)
        split = obs.thread_split(records)
        assert split and split["shards"] >= 4, split
        assert "threads:" in obs.render_stats(records)
    print(f"thread-smoke: {split['shards']} threads.shard spans over "
          f"{split['threads']} thread(s) visible to repro stats")

    # 5. sanitized variant
    _sanitized_leg()

    print("thread-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
