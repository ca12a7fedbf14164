"""Engine micro-benchmarks: compiled netlist plan and MC runner reuse.

Times the hot paths that PR "compiled structure-of-arrays netlist
engine" optimized, against the retained per-gate / per-trial reference
paths, and emits a ``BENCH_engines.json`` summary at the repo root so
future PRs have a perf trajectory.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engines.py -q

The pytest-benchmark fixture times the optimized path; the reference
path is measured once per test with ``perf_counter`` (it is 5-30x
slower, timing it with full rounds would dominate the suite).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.bench.suite import build_kernel
from repro.experiments import fig2, fig4, fig7
from repro.experiments.context import ExperimentContext
from repro.fi.base import FaultInjector
from repro.mc.runner import run_point, run_trial
from repro.netlist.plan import F32_ATOL, F32_RTOL
from repro.store import ResultStore
from repro.timing.dta import run_dta

#: Block width pinned by the acceptance criterion of the engines PR.
#: ``REPRO_BENCH_BLOCK`` shrinks it for the reduced-size regression
#: gate (``make bench-check``).
BLOCK = int(os.environ.get("REPRO_BENCH_BLOCK", "512"))

#: Native rows only exist where a working C compiler does; the JSON
#: records availability + the compiler identity so ``bench-check``
#: (and readers) can tell "no native on this machine" from "rows
#: silently lost".
NATIVE_AVAILABLE = native.native_available()
needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE,
    reason=f"native backend unavailable "
           f"({native.unavailable_reason()})")

RESULTS: dict[str, dict] = {}


def _time_best(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _record(name: str, compiled_s: float, reference_s: float,
            **extra) -> None:
    RESULTS[name] = {
        "compiled_ms": round(compiled_s * 1e3, 3),
        "reference_ms": round(reference_s * 1e3, 3),
        "speedup": round(reference_s / compiled_s, 2),
        **extra,
    }


@pytest.fixture(scope="module", autouse=True)
def emit_summary():
    yield
    if RESULTS:
        default = Path(__file__).resolve().parent.parent \
            / "BENCH_engines.json"
        path = Path(os.environ.get("REPRO_BENCH_OUT", default))
        probe = native.probe_compiler() if NATIVE_AVAILABLE else None
        payload = {"block": BLOCK, "cpu_count": os.cpu_count(),
                   "native_available": NATIVE_AVAILABLE,
                   "native_compiler":
                       probe.version if probe is not None else None,
                   "results": RESULTS}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _operand_block(seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 32, BLOCK + 1, dtype=np.uint64)
    b = rng.integers(0, 1 << 32, BLOCK + 1, dtype=np.uint64)
    return a, b


@pytest.mark.parametrize("mnemonic", ["l.add", "l.mul"])
@pytest.mark.parametrize("glitch_model", ["sensitized", "value-change"])
def test_propagate_block(benchmark, ctx, mnemonic, glitch_model):
    """Circuit.propagate on one ALU unit at block=512, both engines."""
    alu = ctx.alu
    a, b = _operand_block()
    prev, new = (a[:BLOCK], b[:BLOCK]), (a[1:], b[1:])

    def run(engine):
        return alu.propagate(mnemonic, prev, new, 0.7, glitch_model,
                             engine=engine)

    run("compiled")  # warm the plan, workspace and delay tiles
    compiled = benchmark(lambda: run("compiled"))
    reference_s = _time_best(lambda: run("reference"))
    values, arrivals = run("compiled")
    ref_values, ref_arrivals = run("reference")
    assert np.array_equal(values, ref_values)
    assert np.array_equal(arrivals, ref_arrivals)
    _record(f"propagate[{mnemonic},{glitch_model}]",
            benchmark.stats.stats.min, reference_s)
    assert compiled is not None


@pytest.mark.parametrize("mnemonic", ["l.add", "l.mul"])
@pytest.mark.parametrize("glitch_model", ["sensitized", "value-change"])
def test_propagate_block_f32(benchmark, ctx, mnemonic, glitch_model):
    """float32 timing view vs the f64 compiled engine and the reference.

    Halved settle-pipeline traffic on the bandwidth-bound path;
    ``vs_serial`` is the gain over compiled f64.  Values must stay
    bit-identical; arrivals must hold the relaxed-identity contract.
    """
    alu = ctx.alu
    a, b = _operand_block()
    prev, new = (a[:BLOCK], b[:BLOCK]), (a[1:], b[1:])

    def run(engine):
        return alu.propagate(mnemonic, prev, new, 0.7, glitch_model,
                             engine=engine)

    run("compiled-f32")  # warm plan, f32 workspace and delay tiles
    benchmark(lambda: run("compiled-f32"))
    run("compiled")
    serial_s = _time_best(lambda: run("compiled"))
    reference_s = _time_best(lambda: run("reference"))
    values32, arrivals32 = run("compiled-f32")
    values64, arrivals64 = run("compiled")
    assert np.array_equal(values32, values64)
    np.testing.assert_allclose(arrivals32, arrivals64,
                               rtol=F32_RTOL, atol=F32_ATOL)
    f32_s = benchmark.stats.stats.min
    _record(f"propagate[{mnemonic},{glitch_model},f32]", f32_s,
            reference_s, serial_ms=round(serial_s * 1e3, 3),
            vs_serial=round(serial_s / f32_s, 2))


@needs_native
@pytest.mark.parametrize("mnemonic", ["l.add", "l.mul"])
@pytest.mark.parametrize("engine", ["compiled-native", "native-f32"])
def test_propagate_block_native(benchmark, ctx, mnemonic, engine):
    """Fused C level kernels vs the numpy engines and the reference.

    The PR 1 acceptance row, finally: one pass per gate computes
    values + events + settles together, so the level pipeline stops
    paying one memory trip per numpy op.  ``vs_serial`` is the gain
    over the *same-dtype* numpy engine (the >= 1.4x gate for f64);
    ``speedup`` is vs the per-gate reference (the 10x target).
    native-f64 must stay bit-identical to compiled-f64; native-f32
    holds the relaxed-identity contract against it.
    """
    alu = ctx.alu
    a, b = _operand_block()
    prev, new = (a[:BLOCK], b[:BLOCK]), (a[1:], b[1:])

    def run(eng):
        return alu.propagate(mnemonic, prev, new, 0.7, "sensitized",
                             engine=eng)

    numpy_engine = "compiled" if engine == "compiled-native" \
        else "compiled-f32"
    run(engine)  # warm plan, descriptor, kernels and workspace
    benchmark(lambda: run(engine))
    run(numpy_engine)
    serial_s = _time_best(lambda: run(numpy_engine))
    reference_s = _time_best(lambda: run("reference"))
    values_n, arrivals_n = run(engine)
    values_c, arrivals_c = run("compiled")
    assert np.array_equal(values_n, values_c)
    if engine == "compiled-native":
        assert np.array_equal(arrivals_n, arrivals_c)
    else:
        np.testing.assert_allclose(arrivals_n, arrivals_c,
                                   rtol=F32_RTOL, atol=F32_ATOL)
    native_s = benchmark.stats.stats.min
    tag = "native" if engine == "compiled-native" else "native-f32"
    _record(f"propagate[{mnemonic},sensitized,{tag}]", native_s,
            reference_s, serial_ms=round(serial_s * 1e3, 3),
            vs_serial=round(serial_s / native_s, 2))


@needs_native
@pytest.mark.parametrize("mnemonic", ["l.mul"])
def test_run_dta_native(benchmark, ctx, mnemonic):
    """DTA characterization end to end on the native engine."""
    alu = ctx.alu
    n_cycles = 2 * BLOCK

    def run(engine):
        return run_dta(alu, mnemonic, n_cycles, vdd=0.7, seed=11,
                       block=BLOCK, engine=engine)

    run("compiled-native")
    benchmark(lambda: run("compiled-native"))
    reference_s = _time_best(lambda: run("reference"))
    native_res = run("compiled-native")
    compiled_res = run("compiled")
    assert np.array_equal(native_res.critical_ps,
                          compiled_res.critical_ps)
    _record(f"run_dta[{mnemonic},1024cyc,native]",
            benchmark.stats.stats.min, reference_s)


@pytest.mark.parametrize("mnemonic", ["l.add", "l.mul"])
def test_run_dta(benchmark, ctx, mnemonic):
    """DTA characterization throughput at block=512."""
    alu = ctx.alu
    n_cycles = 2 * BLOCK

    def run(engine):
        return run_dta(alu, mnemonic, n_cycles, vdd=0.7, seed=11,
                       block=BLOCK, engine=engine)

    run("compiled")
    benchmark(lambda: run("compiled"))
    reference_s = _time_best(lambda: run("reference"))
    compiled_res = run("compiled")
    reference_res = run("reference")
    assert np.array_equal(compiled_res.critical_ps,
                          reference_res.critical_ps)
    _record(f"run_dta[{mnemonic},1024cyc]", benchmark.stats.stats.min,
            reference_s)


class _RareInjector(FaultInjector):
    def __init__(self, rng, period=60):
        super().__init__()
        self._rng = rng
        self._period = period

    def fault_mask(self, mnemonic):
        return 1 if self._rng.random() < 1.0 / self._period else 0


def test_fig7_warm_store(benchmark, ctx, scale, tmp_path):
    """Store-served fig7 rerun vs the cold compute-and-persist run.

    The warm path is the subsystem's acceptance criterion: every
    Monte-Carlo point is a store hit, so the rerun costs JSON decode +
    assembly + render only.
    """
    store = ResultStore(tmp_path / "warm-store")
    start = time.perf_counter()
    cold_result = fig7.run(scale, context=ctx, store=store)
    cold_s = time.perf_counter() - start

    warm_result = fig7.run(scale, context=ctx, store=store)
    assert fig7.render(warm_result) == fig7.render(cold_result)
    benchmark(lambda: fig7.run(scale, context=ctx, store=store))
    _record(f"fig7[{scale.name},warm-store]", benchmark.stats.stats.min,
            cold_s)


def test_fig2_warm_store(benchmark, scale, tmp_path):
    """Store-served fig2 rerun vs the cold characterize-and-persist run.

    The curves are pure DTA artifacts: the warm path costs JSON decode
    + assembly + render only, with zero timing simulation (a fresh
    context proves the characterization itself is store-served too).
    """
    from repro.timing import characterize
    characterize.clear_cache()  # a true cold start, like a fresh CLI
    store = ResultStore(tmp_path / "warm-store")
    start = time.perf_counter()
    cold_ctx = ExperimentContext.create(scale, seed=2016, store=store)
    cold_result = fig2.run(scale, context=cold_ctx)
    cold_s = time.perf_counter() - start

    warm_ctx = ExperimentContext.create(scale, seed=2016, store=store)
    warm_result = fig2.run(scale, context=warm_ctx)
    assert fig2.render(warm_result) == fig2.render(cold_result)
    benchmark(lambda: fig2.run(
        scale, context=ExperimentContext.create(scale, seed=2016,
                                                store=store)))
    _record(f"fig2[{scale.name},warm-store]", benchmark.stats.stats.min,
            cold_s)


def test_fig4_warm_store(benchmark, ctx, scale, tmp_path):
    """Store-served fig4 rerun vs the cold per-variant DTA sweep."""
    store = ResultStore(tmp_path / "warm-store")
    start = time.perf_counter()
    cold_result = fig4.run(scale, context=ctx, store=store)
    cold_s = time.perf_counter() - start

    warm_result = fig4.run(scale, context=ctx, store=store)
    assert fig4.render(warm_result) == fig4.render(cold_result)
    benchmark(lambda: fig4.run(scale, context=ctx, store=store))
    _record(f"fig4[{scale.name},warm-store]", benchmark.stats.stats.min,
            cold_s)


def test_run_point_reuse(benchmark):
    """run_point with CPU reuse vs fresh-CPU-per-trial reference."""
    kernel = build_kernel("median", "quick")
    n_trials = 10

    def reuse():
        return run_point(kernel, lambda rng: _RareInjector(rng),
                         n_trials=n_trials, seed=3)

    def fresh():
        injector = _RareInjector(np.random.default_rng(3))
        return [run_trial(kernel, injector) for _ in range(n_trials)]

    # Every fresh CPU allocates a 1 MiB data memory and its snapshot.
    # glibc serves those from recycled heap or from fresh, page-faulted
    # mmap depending on the largest block the process freed before
    # (its dynamic mmap threshold) -- that is, on which rows ran
    # first -- and the reference cost swings ~2x with it.  Freeing a
    # block larger than both buffers pins the recycled-heap regime a
    # long campaign process runs in, whatever the row order.
    scratch = bytearray(16 << 20)
    del scratch
    reuse()
    benchmark(reuse)
    reference_s = _time_best(fresh)
    point = reuse()
    fresh_trials = fresh()
    assert point.trials == fresh_trials
    _record(f"run_point[median,{n_trials}trials]",
            benchmark.stats.stats.min, reference_s)

