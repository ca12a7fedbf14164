"""Native fused level kernels: the optional C backend of the engines.

This package turns the compiled SoA plan's per-level numpy pipeline
into one fused C pass per gate (values + events + settles in a single
loop over memory), compiled on demand with whatever C compiler the
machine has and cached as a shared library under the store directory.
It is wired into the engine selection as one additional engine,
``"compiled-native"``, **bit-identical** to ``"compiled"`` (same ops,
same order, select-vs-multiply masking proven equivalent for the
non-negative settles both produce).

Availability is a property of the machine, not the repo: no compiler
(or ``REPRO_NO_CC=1``) means :func:`native_available` is False, the
``repro engines`` diagnostic says why, and :func:`engine_for` resolves
every request to the numpy engine.  Nothing hard-depends on a
toolchain.

The engine preference lives in this module alone: one process-global
backend (:func:`set_backend`, which the CLI's ``--engine`` calls once)
that forked campaign workers inherit, read by :func:`engine_for`.
"""

from __future__ import annotations

from repro.native.build import (
    BuildResult,
    CompilerProbe,
    Kernels,
    NativeBuildError,
    cache_dir,
    ensure_library,
    library_name,
    load_kernels,
    masked_reason,
    probe_compiler,
)
from repro.native.lowering import (
    BusTables,
    NativeDesc,
    bus_tables,
    native_desc,
    run_fused,
)
from repro.native.source import KERNEL_ABI, render_source, source_hash

__all__ = [
    "BuildResult",
    "BusTables",
    "CompilerProbe",
    "KERNEL_ABI",
    "Kernels",
    "NATIVE_ENGINE",
    "NativeBuildError",
    "NativeDesc",
    "bus_tables",
    "cache_dir",
    "clear_runtime_failure",
    "engine_for",
    "ensure_library",
    "get_backend",
    "library_name",
    "load_kernels",
    "masked_reason",
    "native_available",
    "native_desc",
    "native_status",
    "probe_compiler",
    "record_runtime_failure",
    "render_source",
    "run_fused",
    "runtime_failure",
    "set_backend",
    "source_hash",
    "unavailable_reason",
]

#: The engine executed by the C backend.
NATIVE_ENGINE = "compiled-native"

BACKENDS = ("numpy", "native")

_BACKEND = "numpy"

#: First runtime native failure of this process (compile error behind
#: a passing probe, unloadable library after the rebuild retry, ...).
#: Once latched, engine selection stops offering the native engine --
#: every later propagate runs numpy -- and ``repro engines`` surfaces
#: the reason.  Native is bit-identical to numpy, so a mid-run degrade
#: never changes rendered results.
_RUNTIME_FAILURE: str | None = None


def record_runtime_failure(reason: str) -> None:
    """Latch a native runtime failure and degrade to numpy (logged)."""
    global _RUNTIME_FAILURE
    if _RUNTIME_FAILURE is None:
        import logging
        logging.getLogger("repro.native").warning(
            "native backend degraded to numpy for the rest of this "
            "process: %s", reason)
        _RUNTIME_FAILURE = reason


def runtime_failure() -> str | None:
    return _RUNTIME_FAILURE


def clear_runtime_failure() -> None:
    global _RUNTIME_FAILURE
    _RUNTIME_FAILURE = None


def set_backend(name: str) -> None:
    """Set the process-global engine preference (``--engine``).

    Fork children (campaign and fabric workers) inherit it; a ``native``
    preference still resolves to numpy wherever the backend is
    unavailable.
    """
    global _BACKEND
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; known: {BACKENDS}")
    _BACKEND = name


def get_backend() -> str:
    return _BACKEND


def unavailable_reason() -> str | None:
    """Why the native backend cannot run here, or None if it can."""
    masked = masked_reason()
    if masked:
        return masked
    probe = probe_compiler()
    if not probe.ok:
        return probe.reason
    return None


def native_available() -> bool:
    return unavailable_reason() is None


def engine_for() -> str:
    """Concrete engine name under the process-global preference.

    A ``"native"`` preference falls back to the numpy engine when the
    backend is unavailable -- selection-level fallback is what keeps
    toolchain-free environments running, and the ``repro engines``
    diagnostic is what makes it visible.
    """
    if _BACKEND == "native" and native_available() \
            and _RUNTIME_FAILURE is None:
        return NATIVE_ENGINE
    return "compiled"


def native_status() -> dict:
    """Diagnostic record for the native engine (``repro engines``).

    Always answers -- available or not -- with the compiler probe
    outcome, the cache path the library would live at, the source
    hash and the compiler flags the probe settled on (a fallback to a
    plain :data:`~repro.native.build.CFLAG_SETS` entry shows up there),
    so a silent fallback can be diagnosed from the CLI.
    """
    reason = unavailable_reason()
    record: dict = {
        "available": reason is None,
        "reason": reason,
        "runtime_failure": _RUNTIME_FAILURE,
        "cache_dir": str(cache_dir()),
        "compiler": None,
        "compiler_version": None,
        "cflags": None,
        "source_hash": None,
        "library": None,
        "cached": False,
    }
    if masked_reason() is None:
        probe = probe_compiler()
        if probe.ok:
            record["compiler"] = probe.exe
            record["compiler_version"] = probe.version
            record["cflags"] = " ".join(probe.cflags)
            sha = source_hash(render_source(), probe.version or "",
                              probe.cflags)
            path = cache_dir() / library_name(sha)
            record["source_hash"] = sha
            record["library"] = str(path)
            record["cached"] = path.exists()
    return record
