#!/usr/bin/env python
"""Native equivalence under ASan+UBSan (``make sanitize-smoke``).

The native backend is ~400 lines of pointer-walking C driven by ctypes
-- exactly the code a memory bug hides in without crashing.  This
smoke rebuilds the kernels with ``-fsanitize=address,undefined`` (the
``REPRO_CC_SANITIZE=1`` build variant, which lives under its own cache
key with a ``-san`` tag) and re-runs the native engine-equivalence
tests under the instrumented library, so any out-of-bounds read,
overflow, or misaligned access aborts loudly instead of corrupting an
arrival in the 12th decimal.

Loading an ASan-instrumented .so into a *non*-instrumented python
needs the ASan runtime preloaded, so the test run gets
``LD_PRELOAD=$(cc -print-file-name=libasan.so)`` plus
``ASAN_OPTIONS=detect_leaks=0`` (the interpreter itself "leaks" its
way to exit; we only care about the kernel code).

Skips (exit 0) with a notice when the machine has no C compiler, the
toolchain can't link the sanitizers (no libasan/libubsan), or the
runtime can't be preloaded into python -- the variant is a debug tool,
optional by the same contract as the backend itself.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)

from repro import native  # noqa: E402


def _env(tmp: str, preload: str | None = None) -> dict[str, str]:
    env = {**os.environ,
           "REPRO_CC_SANITIZE": "1",
           "REPRO_NATIVE_CACHE": tmp,
           "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": SRC + (os.pathsep + os.environ["PYTHONPATH"]
                                if os.environ.get("PYTHONPATH") else "")}
    if preload:
        env["LD_PRELOAD"] = preload
    return env


def _skip(reason: str) -> int:
    print(f"sanitize-smoke: SKIPPED -- {reason}")
    return 0


def main() -> int:
    reason = native.unavailable_reason()
    if reason is not None:
        return _skip(f"backend unavailable: {reason}")

    probe = native.probe_compiler()
    assert probe.ok and probe.exe

    with tempfile.TemporaryDirectory(prefix="sanitize-smoke-") as tmp:
        # 1. Can this toolchain link the sanitizers at all?  The probe
        # re-runs with SANITIZE_FLAGS appended when REPRO_CC_SANITIZE
        # is set, so a fresh subprocess answers authoritatively.
        probed = subprocess.run(
            [sys.executable, "-c",
             "from repro.native import build;"
             "p = build.probe_compiler();"
             "print(p.reason or '');"
             "raise SystemExit(0 if p.ok else 3)"],
            env=_env(tmp), cwd=REPO, capture_output=True, text=True)
        if probed.returncode == 3:
            return _skip(f"toolchain cannot build sanitized objects "
                         f"({probed.stdout.strip()})")
        assert probed.returncode == 0, probed.stderr

        # 2. Locate the ASan runtime to preload into python.
        preload = []
        for lib in ("libasan.so", "libubsan.so"):
            found = subprocess.run(
                [probe.exe, f"-print-file-name={lib}"],
                capture_output=True, text=True).stdout.strip()
            if found and Path(found).is_file():
                preload.append(found)
        if not preload or "libasan" not in preload[0]:
            return _skip("libasan.so not found next to the toolchain")
        preload_path = os.pathsep.join(preload)

        # 3. Build the sanitized library and prove it loads and runs
        # under the preloaded runtime.  A failure here means the
        # runtime can't be injected into this python -- skip, since
        # the build itself already succeeded.
        built = subprocess.run(
            [sys.executable, "-c",
             "from repro.native import build;"
             "r = build.ensure_library('float64');"
             "assert r.built and '-san-' in r.path.name, r.path.name;"
             "print(r.path.name)"],
            env=_env(tmp), cwd=REPO, capture_output=True, text=True)
        assert built.returncode == 0, built.stderr
        name = built.stdout.strip()
        loaded = subprocess.run(
            [sys.executable, "-c",
             "from repro.native import build;"
             "build.load_kernels('float64')"],
            env=_env(tmp, preload_path), cwd=REPO,
            capture_output=True, text=True)
        if loaded.returncode != 0:
            return _skip("ASan runtime could not be preloaded into "
                         "python (dlopen of the instrumented library "
                         "failed)")
        print(f"sanitize-smoke: built + loaded {name} "
              f"under {Path(preload[0]).name} ({probe.version})")

        # 4. The actual gate: the native equivalence suite, running
        # the instrumented kernels.  Bit-identity asserts still hold
        # (sanitizers instrument around the arithmetic, not in it),
        # and any memory error aborts the run.  ``all_engines`` and
        # ``edge_shapes`` select the edge-shape tests (single gates,
        # width-1 levels, single-vector and non-multiple-of-64
        # blocks), which run the native engine next to the numpy
        # ones; ``in_place_delay`` the native delay-cache check.
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "tests/test_engine_equivalence.py",
             "-k", "native or all_engines or edge_shapes or in_place_delay",
             "tests/test_native_backend.py"],
            env=_env(tmp, preload_path), cwd=REPO,
            capture_output=True, text=True)
        print(tests.stdout + tests.stderr, end="")
        assert tests.returncode == 0, \
            "native equivalence tests failed under ASan/UBSan"
        passed = re.search(r"(\d+) passed", tests.stdout)
        assert passed and int(passed.group(1)) > 0, \
            "no native equivalence test ran under ASan/UBSan"
        print(f"sanitize-smoke: {passed.group(1)} native equivalence "
              f"tests green under ASan+UBSan")

    print("sanitize-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
