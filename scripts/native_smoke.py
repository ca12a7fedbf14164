#!/usr/bin/env python
"""End-to-end smoke of the native kernel backend (``make native-smoke``).

Proves, in a throwaway cache directory, the backend's whole lifecycle:

1. **Build**: a cold cache compiles the kernel library exactly
   once (``BuildResult.built`` is True, the .so lands under the cache
   dir with its source hash in the name).
2. **Run**: ``engine="compiled-native"`` produces bit-identical
   values/arrivals to ``engine="compiled"`` on a real ALU propagate,
   both glitch models.
3. **Cache hit**: a second ensure serves the library without invoking
   the compiler, a second Circuit reuses it, and a *fresh process*
   pointed at the same cache dir also reuses it (the cross-invocation
   story).
4. **Mask**: a subprocess with ``REPRO_NO_CC=1`` reports the backend
   unavailable and still runs the numpy engine -- the toolchain-free
   fallback that tier-1 relies on.

Where this machine has no working C compiler at all, the smoke prints
the probe's reason and exits 0 -- the backend is optional by contract,
and ``repro engines`` is the diagnostic that makes that visible.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro import native  # noqa: E402
from repro.native import build as build_mod  # noqa: E402


def _propagate(engine: str):
    from repro.netlist.calibrate import calibrated_alu
    alu = calibrated_alu()
    rng = np.random.default_rng(7)
    a = rng.integers(0, 1 << 32, 129, dtype=np.uint64)
    b = rng.integers(0, 1 << 32, 129, dtype=np.uint64)
    outs = []
    for glitch_model in ("sensitized", "value-change"):
        outs.append(alu.propagate("l.add", (a[:128], b[:128]),
                                  (a[1:], b[1:]), 0.7, glitch_model,
                                  engine=engine))
    return outs


def main() -> int:
    reason = native.unavailable_reason()
    if reason is not None:
        print(f"native-smoke: SKIPPED -- backend unavailable: {reason}")
        return 0

    with tempfile.TemporaryDirectory(prefix="native-smoke-") as tmp:
        os.environ["REPRO_NATIVE_CACHE"] = tmp

        # 1. cold build
        first = build_mod.ensure_library()
        assert first.built, "cold cache must compile"
        assert first.path.exists() and first.sha256[:16] in first.path.name
        print(f"native-smoke: built {first.path.name} "
              f"({native.probe_compiler().version})")

        # 2. bit-identical run
        native_out = _propagate("compiled-native")
        numpy_out = _propagate("compiled")
        for (values_n, arr_n), (values_c, arr_c) in zip(native_out,
                                                        numpy_out):
            assert np.array_equal(values_n, values_c)
            assert np.array_equal(arr_n, arr_c)
        print("native-smoke: propagate bit-identical to compiled "
              "(both glitch models)")

        # 3. cache hits: same process, second circuit, fresh process
        count = build_mod.build_count
        again = build_mod.ensure_library()
        assert not again.built and again.path == first.path
        _propagate("compiled-native")  # a second ALU instance
        assert build_mod.build_count == count, \
            "second circuit must reuse the cached library"
        fresh = subprocess.run(
            [sys.executable, "-c",
             "from repro.native import build;"
             "r = build.ensure_library();"
             "raise SystemExit(1 if r.built else 0)"],
            env={**os.environ,
                 "PYTHONPATH": str(REPO / "src")
                 + (os.pathsep + os.environ["PYTHONPATH"]
                    if os.environ.get("PYTHONPATH") else "")},
            cwd=REPO)
        assert fresh.returncode == 0, \
            "a fresh process must hit the cache, not rebuild"
        print("native-smoke: cache hit in-process, across circuits and "
              "across processes")

        # 4. masked toolchain falls back cleanly
        masked = subprocess.run(
            [sys.executable, "-c",
             "from repro import native;"
             "from repro.netlist.circuit import Circuit;"
             "import numpy as np;"
             "assert not native.native_available();"
             "native.set_backend('native');"
             "assert native.engine_for() == 'compiled';"
             "c = Circuit('m'); a = c.input_bus('a', 1)[0];"
             "c.output_bus('y', [c.gate('INV', a)]);"
             "c.propagate({'a': [0]}, {'a': [1]}, np.array([1.0]),"
             " engine=native.engine_for())"],
            env={**os.environ, "REPRO_NO_CC": "1",
                 "PYTHONPATH": str(REPO / "src")
                 + (os.pathsep + os.environ["PYTHONPATH"]
                    if os.environ.get("PYTHONPATH") else "")},
            cwd=REPO)
        assert masked.returncode == 0, \
            "REPRO_NO_CC must fall back to the numpy engines"
        print("native-smoke: REPRO_NO_CC masks the backend and numpy "
              "serves the request")

    print("native-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
