"""Native backend unit tests: build cache, availability, lowering.

Everything that actually invokes the compiler is marked with
``needs_native`` and auto-skips -- with the probe's reason -- where no
working C compiler exists or ``REPRO_NO_CC`` masks it; the
availability/fallback tests themselves run everywhere.
"""

import contextlib
import multiprocessing
import os

import numpy as np
import pytest

from repro import native
from repro.cli import main
from repro.native import build as build_mod
from repro.netlist.circuit import Circuit

# Defined per file, not imported from conftest: the module name
# ``conftest`` is ambiguous under whole-repo collection (benchmarks/
# owns one too); the condition/reason delegate to repro.native.
needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason=f"native backend unavailable "
           f"({native.unavailable_reason()})")


@contextlib.contextmanager
def native_preference():
    """Set the process-global backend to native for one block."""
    native.set_backend("native")
    try:
        yield
    finally:
        native.set_backend("numpy")


# ---------------------------------------------------------------------------
# Build cache
# ---------------------------------------------------------------------------

@needs_native
def test_build_cache_hit_and_source_hash_rebuild(tmp_path, monkeypatch):
    """Second build is a cache hit; a source change keys a rebuild."""
    first = build_mod.ensure_library(tmp_path)
    assert first.built and first.path.exists()
    count = build_mod.build_count

    again = build_mod.ensure_library(tmp_path)
    assert not again.built  # served from the cache ...
    assert again.path == first.path and again.sha256 == first.sha256
    assert build_mod.build_count == count  # ... without a compile

    # A template change (here: an extra trailing comment) must hash to
    # a different key and rebuild next to the cached library.
    original = build_mod.render_source
    monkeypatch.setattr(
        build_mod, "render_source",
        lambda: original() + "\n/* edited */\n")
    changed = build_mod.ensure_library(tmp_path)
    assert changed.built
    assert changed.sha256 != first.sha256
    assert changed.path != first.path
    assert first.path.exists()  # the old library is not clobbered
    assert build_mod.build_count == count + 1


@needs_native
def test_second_circuit_reuses_cached_library(tmp_path, monkeypatch):
    """A fresh Circuit (fresh plan) never re-invokes the compiler."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))

    def one_run(name):
        circuit = Circuit(name)
        a = circuit.input_bus("a", 2)
        b = circuit.input_bus("b", 2)
        circuit.output_bus("y", [circuit.gate("XOR2", x, y)
                                 for x, y in zip(a, b)])
        return circuit.propagate({"a": [1], "b": [2]},
                                 {"a": [3], "b": [1]},
                                 np.full(2, 2.0), 1.0,
                                 engine="compiled-native")

    one_run("first")
    count = build_mod.build_count
    out, arr = one_run("second")
    assert build_mod.build_count == count  # cached .so reused
    assert out["y"].tolist() == [2]


# ---------------------------------------------------------------------------
# Availability and fallback
# ---------------------------------------------------------------------------

def test_no_cc_masks_the_whole_backend(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CC", "1")
    assert not native.native_available()
    assert "REPRO_NO_CC" in native.unavailable_reason()
    with pytest.raises(native.NativeBuildError, match="REPRO_NO_CC"):
        build_mod.ensure_library()
    status = native.native_status()
    assert status["available"] is False
    assert "REPRO_NO_CC" in status["reason"]
    # Selection resolves a native preference to the numpy engine.
    with native_preference():
        assert native.engine_for() == "compiled"


def test_engine_for_backend_resolution():
    assert native.engine_for() == "compiled"
    with native_preference():
        expected = "compiled-native" if native.native_available() \
            else "compiled"
        assert native.engine_for() == expected
    assert native.engine_for() == "compiled"


def test_backend_default_is_numpy_and_settable():
    assert native.get_backend() == "numpy"
    with native_preference():
        assert native.get_backend() == "native"
    assert native.get_backend() == "numpy"
    with pytest.raises(ValueError, match="backend"):
        native.set_backend("turbo")


def test_engines_cli_lists_every_engine(capsys):
    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines()[1:]
              if line and not line[0].isspace()]
    assert listed == ["reference", "compiled", "compiled-native",
                      "oracle"]
    # Whatever the machine has, the native row says *why*.
    assert ("available" in out)
    if not native.native_available():
        assert "UNAVAILABLE" in out
    elif native.runtime_failure() is None:
        # The available native row names the flags its build used,
        # so a fallback to a plain CFLAG_SETS entry is visible.
        probe = native.probe_compiler()
        assert out.count(f"cflags {' '.join(probe.cflags)}\n") == 1


def test_engines_cli_reports_masked_toolchain(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CC", "1")
    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    assert out.count("UNAVAILABLE") == 1
    assert "REPRO_NO_CC" in out


# ---------------------------------------------------------------------------
# Lowering edge cases
# ---------------------------------------------------------------------------

def test_descriptor_single_gate_records():
    """The flat descriptor must not assume >= 2 ops (or gates) per level."""
    circuit = Circuit("one")
    s = circuit.input_bus("s", 1)[0]
    a = circuit.input_bus("a", 1)[0]
    b = circuit.input_bus("b", 1)[0]
    circuit.output_bus("y", [circuit.gate("MUX2", s, a, b)])
    desc = native.native_desc(circuit.plan)
    assert desc.n_ops == 1
    assert desc.family.tolist() == [2]
    assert (desc.hi - desc.lo).tolist() == [1]
    assert len(desc.ins) == 3  # one stacked [a, b, s] triple
    assert desc.flags.tolist() == [0]
    assert desc.gidx.tolist() == [0]


def test_descriptor_flags_encode_inversion_masks():
    circuit = Circuit("masks")
    a = circuit.input_bus("a", 1)[0]
    b = circuit.input_bus("b", 1)[0]
    nor = circuit.gate("NOR2", a, b)   # pa=T, pb=T, po=F -> 0b011
    inv = circuit.gate("INV", nor)     # pa=F, pb=F, po=T -> 0b100
    circuit.output_bus("y", [nor, inv])
    desc = native.native_desc(circuit.plan)
    rows = circuit.plan.rows
    flag_of = lambda net: int(  # noqa: E731
        desc.flags[int(rows[net]) - desc.gate_row0])
    assert flag_of(nor) == 0b011  # pa, pb set; po clear
    assert flag_of(inv) == 0b100  # phantom const-1 leg, po set


def test_descriptor_cached_on_plan():
    circuit = Circuit("cache")
    a = circuit.input_bus("a", 1)[0]
    circuit.output_bus("y", [circuit.gate("BUF", a)])
    plan = circuit.plan
    assert native.native_desc(plan) is native.native_desc(plan)
    # A netlist edit rebuilds the plan and thereby drops the stale desc.
    circuit.gate("INV", a)
    assert circuit.plan is not plan


@needs_native
def test_native_zero_gate_circuit(tmp_path, monkeypatch):
    """A circuit with no gates runs the native engine as a no-op."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    circuit = Circuit("empty")
    a = circuit.input_bus("a", 2)
    circuit.output_bus("y", a)
    out, arr = circuit.propagate({"a": [1]}, {"a": [2]},
                                 np.empty(0), 1.5,
                                 engine="compiled-native")
    ref, ref_arr = circuit.propagate({"a": [1]}, {"a": [2]},
                                     np.empty(0), 1.5,
                                     engine="compiled")
    assert np.array_equal(out["y"], ref["y"])
    assert np.array_equal(arr["y"], ref_arr["y"])


# ---------------------------------------------------------------------------
# Fault injection and runtime degradation
# ---------------------------------------------------------------------------

@pytest.fixture()
def clean_faults(monkeypatch):
    from repro import faults
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULT_LOG", raising=False)
    faults.reset()
    yield faults
    faults.reset()


def test_compile_timeout_is_configurable(monkeypatch):
    assert build_mod.compile_timeout() == build_mod.DEFAULT_CC_TIMEOUT_S
    monkeypatch.setenv("REPRO_CC_TIMEOUT_S", "7.5")
    assert build_mod.compile_timeout() == 7.5
    monkeypatch.setenv("REPRO_CC_TIMEOUT_S", "junk")
    assert build_mod.compile_timeout() == build_mod.DEFAULT_CC_TIMEOUT_S


@needs_native
def test_injected_compile_fault_surfaces_as_build_error(tmp_path,
                                                        clean_faults):
    clean_faults.configure("native.compile:fail@after=1")
    with pytest.raises(native.NativeBuildError, match="injected"):
        build_mod.ensure_library(tmp_path)
    # The fault fired once; the next attempt compiles normally.
    result = build_mod.ensure_library(tmp_path)
    assert result.path.exists()


@needs_native
def test_corrupt_cached_library_rebuilds_once(tmp_path, clean_faults):
    clean_faults.configure("native.dlopen:corrupt@after=1")
    count = build_mod.build_count
    kernels = build_mod.load_kernels(tmp_path)
    # dlopen hit the injected garbage, moved it aside and rebuilt.
    assert kernels.path.exists()
    assert build_mod.build_count == count + 2  # first build + rebuild
    corpses = list(tmp_path.glob("*.corrupt"))
    assert len(corpses) == 1
    assert corpses[0].read_bytes().startswith(b"injected corruption")


def test_runtime_failure_latch_degrades_engine_selection():
    native.clear_runtime_failure()
    try:
        native.record_runtime_failure("kernel exploded mid-run")
        assert native.runtime_failure() == "kernel exploded mid-run"
        # Even an available toolchain must not be re-selected.
        with native_preference():
            assert native.engine_for() == "compiled"
        status = native.native_status()
        assert status["runtime_failure"] == "kernel exploded mid-run"
        # First reason wins; later failures do not overwrite it.
        native.record_runtime_failure("second reason")
        assert native.runtime_failure() == "kernel exploded mid-run"
    finally:
        native.clear_runtime_failure()
    assert native.runtime_failure() is None


def _in_fork_children(jobs: int, call) -> list:
    """``call()`` in each of ``jobs`` forked children; their results.

    Fork is the substrate behind ``--jobs``: children inherit the
    parent's circuit, caches and fault plane.  A child never returns
    into the test runner; it sends its result (or exception) and exits.
    """
    context = multiprocessing.get_context("fork")
    pipes, procs = [], []
    for _ in range(jobs):
        recv, send = context.Pipe(duplex=False)

        def child(conn=send):
            try:
                conn.send(call())
            except BaseException as exc:
                conn.send(exc)
            finally:
                os._exit(0)

        proc = context.Process(target=child)
        proc.start()
        pipes.append(recv)
        procs.append(proc)
    results = [recv.recv() for recv in pipes]
    for proc in procs:
        proc.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


@needs_native
@pytest.mark.parametrize("jobs", [None, 2])
def test_compile_failure_runs_the_whole_call_on_numpy(
        jobs, tmp_path, monkeypatch, clean_faults):
    """A failed first build degrades that very call, bit-identically.

    On an empty native cache the first ``compiled-native`` propagate
    hits an injected compile failure where the kernels load.  The
    call must latch the runtime failure and return exactly what
    ``compiled`` returns -- in this process (``jobs=None``) and in
    each of two forked children (``jobs=2``), which inherit the fault
    plane's hit counters and so each trip on their own first build.
    """
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    circuit = Circuit("degrade")
    a = circuit.input_bus("a", 8)
    b = circuit.input_bus("b", 8)
    row = [circuit.gate("XOR2", x, y) for x, y in zip(a, b)]
    row = [circuit.gate("NAND2", row[i], row[(i + 1) % 8])
           for i in range(8)]
    circuit.output_bus("y", row)
    rng = np.random.default_rng(3)
    prev = {name: rng.integers(0, 256, 200, dtype=np.uint64)
            for name in ("a", "b")}
    new = {name: rng.integers(0, 256, 200, dtype=np.uint64)
           for name in ("a", "b")}
    delays = rng.uniform(1.0, 9.0, circuit.n_gates)
    native.clear_runtime_failure()
    try:
        for glitch_model in ("sensitized", "value-change"):
            want = circuit.propagate(prev, new, delays, 1.5, glitch_model,
                                     engine="compiled")
            native.clear_runtime_failure()
            clean_faults.configure("native.compile:fail@after=1")

            def degraded_call(glitch_model=glitch_model):
                out, arr = circuit.propagate(prev, new, delays, 1.5,
                                             glitch_model,
                                             engine="compiled-native")
                return native.runtime_failure(), out["y"], arr["y"]

            results = ([degraded_call()] if jobs is None
                       else _in_fork_children(jobs, degraded_call))
            for failure, out_y, arr_y in results:
                assert "injected" in (failure or "")
                assert np.array_equal(out_y, want[0]["y"])
                assert np.array_equal(arr_y, want[1]["y"])
    finally:
        native.clear_runtime_failure()


def test_engines_cli_strict_exit_codes(capsys, monkeypatch):
    native.clear_runtime_failure()
    if native.native_available():
        assert main(["engines", "--strict"]) == 0
        capsys.readouterr()
        try:
            native.record_runtime_failure("injected degrade")
            assert main(["engines", "--strict"]) == 2
            out = capsys.readouterr().out
            assert "DEGRADED" in out
            assert "injected degrade" in out
        finally:
            native.clear_runtime_failure()
    monkeypatch.setenv("REPRO_NO_CC", "1")
    assert main(["engines", "--strict"]) == 2
    out = capsys.readouterr().out
    assert "UNAVAILABLE" in out
    # Without --strict the same situation stays informational.
    assert main(["engines"]) == 0
