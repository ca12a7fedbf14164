"""Process-global telemetry plane: spans, counters, per-pid sinks.

The repo's performance story so far was hand-derived: one-off timers
were added, numbers were copied into the ROADMAP, and the timers were
deleted.  This module makes "where did the time go" a permanent,
queryable property of every run -- the same span/counter discipline
production simulators and serving stacks use -- while costing nearly
nothing when it is off (the common case).

Model
-----

* :func:`span` is a context manager recording one timed region as a
  JSON line (name, pid, tid, span id, parent span id, start, duration,
  free-form attributes).  Spans nest per thread; the parent id chains
  them into a tree, and forked workers inherit the parent process's
  open-span stack so their first spans link back to the dispatching
  span across the process boundary.
* :func:`counter` accumulates named monotonic counters per process;
  cumulative snapshots are emitted as JSON lines by :func:`flush`
  (instrumented loops call it at natural barriers; the process-exit
  hook calls it too).
* Sinks are **per process**: each pid appends to
  ``<trace>.pid-<pid>`` (one unbuffered ``write`` per record, so
  concurrent processes never tear lines and a SIGKILL loses at most
  the in-flight record).  The configuring (owner) process merges every
  part file into ``<trace>`` at exit; leftover parts from a killed run
  are picked up transparently by :func:`repro.obs.export.read_trace`.

Activation
----------

Off by default.  ``REPRO_TRACE=<path>`` in the environment (read once
at import; forked children inherit the live state) or
:func:`configure` (the CLI ``--trace`` flag) turns it on.  The
disabled fast path is one module-global check returning a shared
no-op -- no attribute formatting, no allocation beyond the call's
kwargs -- and is gated below 2% propagate overhead by
``make obs-smoke``.

Telemetry can never change results or exit codes: a sink that fails
to open or write logs one warning and disables the plane for the
process; every record-writing path swallows ``OSError``.

Timestamps are ``time.monotonic()`` (CLOCK_MONOTONIC: one timebase
shared by every process on the machine, so parent and worker spans
align in a merged trace); each sink opens with a ``meta`` record
anchoring that timebase to the wall clock.
"""

from __future__ import annotations

import atexit
import json
import logging
import os
import sys
import threading
import time
from pathlib import Path

_LOG = logging.getLogger("repro.obs")

_TRACE_ENV = "REPRO_TRACE"

#: Module-global fast-path flag -- the only thing the disabled hot
#: path touches.
_ENABLED = False

_BASE: Path | None = None     # merged-trace path (sink base)
_OWNER_PID: int | None = None  # process that configured; it merges
_HANDLE = None                # this process's part-file handle
_LOCK = threading.Lock()      # sink + counter mutation
_COUNTERS: dict[str, float] = {}
_COUNTERS_DIRTY = False
_SPAN_SEQ = 0

_TLS = threading.local()


def _stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


def enabled() -> bool:
    """Whether the telemetry plane is recording in this process."""
    return _ENABLED


def current_span_id() -> str | None:
    """Id of the innermost open span of this thread (cross-refs).

    Used by the fault plane to stamp fired faults with the span they
    fired inside, so chaos events correlate with trace timelines.
    """
    if not _ENABLED:
        return None
    stack = _stack()
    return stack[-1] if stack else None


class _NullSpan:
    """Shared no-op span: what :func:`span` returns when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL = _NullSpan()


class _Span:
    """One live timed region (returned by :func:`span` when enabled)."""

    __slots__ = ("name", "attrs", "id", "parent", "t0")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "_Span":
        """Attach attributes discovered mid-span (e.g. an outcome)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        global _SPAN_SEQ
        stack = _stack()
        self.parent = stack[-1] if stack else None
        with _LOCK:
            _SPAN_SEQ += 1
            seq = _SPAN_SEQ
        self.id = f"{os.getpid()}-{seq}"
        stack.append(self.id)
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.monotonic()
        stack = _stack()
        if stack and stack[-1] == self.id:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        record = {
            "t": "span",
            "name": self.name,
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "id": self.id,
            "ts": self.t0 * 1e6,
            "dur": (t1 - self.t0) * 1e6,
        }
        if self.parent is not None:
            record["parent"] = self.parent
        if self.attrs:
            record["a"] = self.attrs
        _write(record)
        return False


def span(name: str, **attrs):
    """Context manager timing one named region (no-op when disabled).

    Keyword arguments become the span's attributes; more can be added
    inside the block via ``.set(key=value)``.  Durations and start
    times are recorded in microseconds on the shared monotonic
    timebase.
    """
    if not _ENABLED:
        return _NULL
    return _Span(name, attrs)


def counter(name: str, value: float = 1) -> None:
    """Add to a named monotonic per-process counter (no-op off)."""
    global _COUNTERS_DIRTY
    if not _ENABLED:
        return
    with _LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + value
        _COUNTERS_DIRTY = True


def flush() -> None:
    """Emit a cumulative counter snapshot record (if anything changed).

    Span records hit the sink as they close; only counters batch.
    Instrumented loops call this at natural barriers (a forked worker
    after its shard or batch) because forked workers exit via
    ``os._exit`` and never run this module's atexit hook.
    """
    global _COUNTERS_DIRTY
    if not _ENABLED:
        return
    with _LOCK:
        if not _COUNTERS_DIRTY:
            return
        _COUNTERS_DIRTY = False
        snapshot = dict(_COUNTERS)
    _write({"t": "ctr", "pid": os.getpid(),
            "ts": time.monotonic() * 1e6, "counters": snapshot})


# -- sink --------------------------------------------------------------


def _part_path(base: Path, pid: int) -> Path:
    return base.with_name(f"{base.name}.pid-{pid}")


def _open_sink():
    """This process's part file, opened lazily with a meta record.

    Unbuffered binary append: every record is one ``write`` syscall,
    so lines from the beat thread and the main thread never interleave
    mid-line and a kill loses at most one record.
    """
    global _HANDLE, _ENABLED
    if _HANDLE is not None:
        return _HANDLE
    assert _BASE is not None
    try:
        _HANDLE = open(_part_path(_BASE, os.getpid()), "ab", buffering=0)
        meta = {"t": "meta", "pid": os.getpid(), "ppid": os.getppid(),
                "unix": time.time(), "mono": time.monotonic() * 1e6,
                "argv": sys.argv}
        _HANDLE.write((json.dumps(meta) + "\n").encode())
    except OSError as error:
        _ENABLED = False
        _HANDLE = None
        _LOG.warning("trace sink %s unusable (%s); telemetry disabled "
                     "for this process", _BASE, error)
        return None
    return _HANDLE


def _write(record: dict) -> None:
    global _ENABLED, _HANDLE
    with _LOCK:
        handle = _open_sink()
        if handle is None:
            return
        try:
            handle.write((json.dumps(record) + "\n").encode())
        except (OSError, ValueError) as error:
            # ValueError: handle closed under us (interpreter teardown
            # or a hostile environment); same treatment as I/O errors.
            # Telemetry is diagnostic, never load-bearing: a full disk
            # or yanked mount silences the plane, not the run.
            _ENABLED = False
            try:
                handle.close()
            except OSError:
                pass
            _HANDLE = None
            _LOG.warning("trace sink write failed (%s); telemetry "
                         "disabled for this process", error)


# -- lifecycle ---------------------------------------------------------


def configure(path: str | os.PathLike | None) -> None:
    """Install (or clear, with None/'') the trace sink for this run.

    The configuring process *owns* the trace: stale outputs of a
    previous run at the same path are cleared here, and this process's
    exit hook merges every per-pid part into ``path``.  Forked workers
    inherit the enabled state and write their own parts.
    """
    global _ENABLED, _BASE, _OWNER_PID, _HANDLE, _COUNTERS, \
        _COUNTERS_DIRTY
    _close_handle()
    _COUNTERS = {}
    _COUNTERS_DIRTY = False
    if not path:
        _ENABLED = False
        _BASE = None
        _OWNER_PID = None
        return
    base = Path(path)
    try:
        base.parent.mkdir(parents=True, exist_ok=True)
        base.unlink(missing_ok=True)
        for part in base.parent.glob(f"{base.name}.pid-*"):
            part.unlink(missing_ok=True)
    except OSError as error:
        _LOG.warning("trace path %s unusable (%s); telemetry stays "
                     "off", path, error)
        _ENABLED = False
        _BASE = None
        _OWNER_PID = None
        return
    _BASE = base
    _OWNER_PID = os.getpid()
    _ENABLED = True


def _close_handle() -> None:
    global _HANDLE
    if _HANDLE is not None:
        try:
            _HANDLE.close()
        except OSError:  # pragma: no cover
            pass
        _HANDLE = None


def merge_parts(base: Path) -> Path:
    """Concatenate every ``<base>.pid-*`` part into ``<base>``.

    Idempotent and order-stable: an existing merged file is kept and
    parts are appended (pid-sorted, owner's part naturally first
    because lower pids sort first only by luck -- order does not
    matter, every record is self-describing).  Returns ``base``.
    """
    base = Path(base)
    parts = sorted(base.parent.glob(f"{base.name}.pid-*"))
    if not parts:
        return base
    with open(base, "ab") as merged:
        for part in parts:
            try:
                merged.write(part.read_bytes())
                part.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                continue
    return base


def shutdown() -> None:
    """Flush counters; the owner process also merges the part files."""
    flush()
    _close_handle()
    if _BASE is not None and os.getpid() == _OWNER_PID:
        try:
            merge_parts(_BASE)
        except OSError:  # pragma: no cover - sink gone mid-merge
            pass


def reset() -> None:
    """Disable and forget all plane state (tests)."""
    global _ENABLED, _BASE, _OWNER_PID, _COUNTERS, _COUNTERS_DIRTY
    _close_handle()
    _ENABLED = False
    _BASE = None
    _OWNER_PID = None
    _COUNTERS = {}
    _COUNTERS_DIRTY = False
    _TLS.stack = []


def _after_fork_child() -> None:
    """Reset per-process sink state in a forked child.

    The child must write its own ``pid-<pid>`` part (the inherited
    handle points at the parent's) and must not re-emit counters the
    parent already accumulated.  The open-span stack is deliberately
    kept: the span live at fork time is the correct cross-process
    parent for the child's first spans.
    """
    global _HANDLE, _COUNTERS, _COUNTERS_DIRTY
    _HANDLE = None  # do not close: the fd is shared with the parent
    _COUNTERS = {}
    _COUNTERS_DIRTY = False


os.register_at_fork(after_in_child=_after_fork_child)
atexit.register(shutdown)

# Environment activation: one check at import time; forked children
# inherit the live module state instead of re-importing.
_env_path = os.environ.get(_TRACE_ENV)
if _env_path:
    configure(_env_path)
