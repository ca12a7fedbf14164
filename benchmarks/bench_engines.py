"""Engine micro-benchmarks: netlist plan, MC runner reuse and the ISS.

Times the hot paths that PR "compiled structure-of-arrays netlist
engine" optimized, against the retained per-gate / per-trial reference
paths, and emits a ``BENCH_engines.json`` summary at the repo root so
future PRs have a perf trajectory.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engines.py -q

The pytest-benchmark fixture times the optimized path; the reference
path is measured once per test with ``perf_counter`` (it is 5-30x
slower, timing it with full rounds would dominate the suite).  The
propagate, DTA, scheduled ``run_point`` and ISS rows, whose ratios
swing between processes on a loaded host, time alternating pairs
instead (:func:`_paired_medians`).
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro import experiments
from repro.bench.suite import build_kernel
from repro.experiments import fig2, fig4, fig7
from repro.experiments.context import ExperimentContext
from repro.fi.base import FaultInjector
from repro.fi.model_c import StatisticalInjector
from repro.mc.runner import golden_run, run_point, run_trial
from repro.sim.cpu import Cpu
from repro.store import ResultStore
from repro.timing.dta import run_dta

#: Block width of the propagate and DTA rows.  ``make bench-baseline``
#: records every row at this one width and ``make bench-check`` reruns
#: the engine rows at it, so the gate compares like with like.
BLOCK = 256

RESULTS: dict[str, dict] = {}


def _time_best(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _record(name: str, compiled_s: float, reference_s: float,
            speedup: float | None = None, **extra) -> None:
    if speedup is None:
        speedup = reference_s / compiled_s
    RESULTS[name] = {
        "compiled_ms": round(compiled_s * 1e3, 3),
        "reference_ms": round(reference_s * 1e3, 3),
        "speedup": round(speedup, 2),
        **extra,
    }


@pytest.fixture(scope="module", autouse=True)
def emit_summary():
    yield
    if RESULTS:
        default = Path(__file__).resolve().parent.parent \
            / "BENCH_engines.json"
        path = Path(os.environ.get("REPRO_BENCH_OUT", default))
        payload = {"block": BLOCK, "cpu_count": os.cpu_count(),
                   "results": RESULTS}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _operand_block(seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 32, BLOCK + 1, dtype=np.uint64)
    b = rng.integers(0, 1 << 32, BLOCK + 1, dtype=np.uint64)
    return a, b


#: Alternating compiled/reference pairs behind each propagate row.
PROPAGATE_PAIRS = 15


@pytest.mark.parametrize("mnemonic", ["l.add", "l.mul"])
@pytest.mark.parametrize("glitch_model", ["sensitized", "value-change"])
def test_propagate_block(ctx, mnemonic, glitch_model):
    """Circuit.propagate on one ALU unit over one block, both engines.

    The row's speedup is the median of ``PROPAGATE_PAIRS`` paired
    ratios (see :func:`_paired_medians`).
    """
    alu = ctx.alu
    a, b = _operand_block()
    prev, new = (a[:BLOCK], b[:BLOCK]), (a[1:], b[1:])

    def run(engine):
        return alu.propagate(mnemonic, prev, new, 0.7, glitch_model,
                             engine=engine)

    run("compiled")  # warm the plan, workspace and delay tiles
    values, arrivals = run("compiled")
    ref_values, ref_arrivals = run("reference")
    assert np.array_equal(values, ref_values)
    assert np.array_equal(arrivals, ref_arrivals)
    compiled_s, reference_s, speedup = _paired_medians(
        lambda: run("compiled"), lambda: run("reference"),
        PROPAGATE_PAIRS)
    _record(f"propagate[{mnemonic},{glitch_model}]", compiled_s,
            reference_s, speedup=speedup)


#: Alternating compiled/reference pairs behind each DTA row.
RUN_DTA_PAIRS = 15


@pytest.mark.parametrize("mnemonic", ["l.add", "l.mul"])
def test_run_dta(ctx, mnemonic):
    """DTA characterization throughput over 1024 cycles.

    The row's speedup is the median of ``RUN_DTA_PAIRS`` paired ratios
    (see :func:`_paired_medians`).
    """
    alu = ctx.alu
    n_cycles = 1024

    def run(engine):
        return run_dta(alu, mnemonic, n_cycles, vdd=0.7, seed=11,
                       block=BLOCK, engine=engine)

    compiled_res = run("compiled")
    reference_res = run("reference")
    assert np.array_equal(compiled_res.critical_ps,
                          reference_res.critical_ps)
    compiled_s, reference_s, speedup = _paired_medians(
        lambda: run("compiled"), lambda: run("reference"), RUN_DTA_PAIRS)
    _record(f"run_dta[{mnemonic},1024cyc]", compiled_s, reference_s,
            speedup=speedup)


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
    cold_result = experiments.run("fig7", scale, context=ctx,
                                  store=store)
    cold_s = time.perf_counter() - start

    warm_result = experiments.run("fig7", scale, context=ctx,
                                  store=store)
    assert fig7.render(warm_result) == fig7.render(cold_result)
    benchmark(lambda: experiments.run("fig7", scale, context=ctx,
                                      store=store))
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
    cold_result = experiments.run("fig2", scale, context=cold_ctx)
    cold_s = time.perf_counter() - start

    warm_ctx = ExperimentContext.create(scale, seed=2016, store=store)
    warm_result = experiments.run("fig2", scale, context=warm_ctx)
    assert fig2.render(warm_result) == fig2.render(cold_result)
    benchmark(lambda: experiments.run(
        "fig2", scale, context=ExperimentContext.create(
            scale, seed=2016, store=store)))
    _record(f"fig2[{scale.name},warm-store]", benchmark.stats.stats.min,
            cold_s)


def test_fig4_warm_store(benchmark, ctx, scale, tmp_path):
    """Store-served fig4 rerun vs the cold per-variant DTA sweep."""
    store = ResultStore(tmp_path / "warm-store")
    start = time.perf_counter()
    cold_result = experiments.run("fig4", scale, context=ctx,
                                  store=store)
    cold_s = time.perf_counter() - start

    warm_result = experiments.run("fig4", scale, context=ctx,
                                  store=store)
    assert fig4.render(warm_result) == fig4.render(cold_result)
    benchmark(lambda: experiments.run("fig4", scale, context=ctx,
                                      store=store))
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


def _paired_medians(fast, slow, pairs: int) -> tuple[float, float, float]:
    """Median seconds of each side over alternating runs, and the
    median of the per-pair slow/fast ratios.

    Each pair times one fast run and one slow run back to back, so load
    that drifts during the measurement moves both sides of a pair
    alike; a few slow runs on either side cannot move the median ratio
    the way they move a ratio of two minima.
    """
    fast_runs, slow_runs = [], []
    for _ in range(pairs):
        fast_runs.append(_time_best(fast, reps=1))
        slow_runs.append(_time_best(slow, reps=1))
    return (statistics.median(fast_runs), statistics.median(slow_runs),
            statistics.median(slow / fast
                              for fast, slow in zip(fast_runs, slow_runs)))


#: Alternating scheduled/per-op pairs behind the run_point row's ratio.
RUN_POINT_PAIRS = 15


def test_run_point_scheduled(ctx):
    """Model-C point run on its fault schedule vs per-op fault masks.

    At 690 MHz every trial of the quick 16-bit matmul faults several
    times yet keeps the golden ALU mnemonic sequence, the regime the
    schedule's counting hook serves; the reference is the same model
    with ``next_fault`` returning None, so every ALU op calls
    ``fault_mask``.  The row's speedup is the median of
    ``RUN_POINT_PAIRS`` paired ratios (see :func:`_paired_medians`).
    """
    kernel = build_kernel("mat_mult_16bit", "quick")
    characterization = ctx.characterization(0.7)
    noise = ctx.noise(0.010)
    per_op = type("PerOpStatisticalInjector", (StatisticalInjector,),
                  {"next_fault": lambda self, mnemonic_ids, start: None})

    def point(cls):
        return run_point(kernel, lambda rng: cls(
            characterization, 690e6, noise, vdd_model=ctx.vdd_model,
            rng=rng), n_trials=10, seed=3)

    scheduled = point(StatisticalInjector)
    assert scheduled == point(per_op)
    golden_ops = len(golden_run(kernel).mnemonic_ids)
    assert all(trial.fault_count and trial.finished
               and trial.alu_cycles == golden_ops
               for trial in scheduled.trials)
    scheduled_s, per_op_s, speedup = _paired_medians(
        lambda: point(StatisticalInjector), lambda: point(per_op),
        RUN_POINT_PAIRS)
    _record("run_point[mat_mult_16bit,scheduled]", scheduled_s, per_op_s,
            speedup=speedup)


#: Alternating block/step pairs behind the ISS row's median ratio.
ISS_PAIRS = 31


def test_iss_blocks():
    """Block-compiled ISS vs its per-instruction step path.

    One hook-free run of the paper-size 16-bit matmul (44 k cycles);
    the reference is the same program on a CPU that a no-op trace hook
    keeps on the step path.  The row's speedup is the median of
    ``ISS_PAIRS`` paired ratios (see :func:`_paired_medians`).
    """
    kernel = build_kernel("mat_mult_16bit", "paper")
    blocks = Cpu(kernel.program)
    steps = Cpu(kernel.program, trace_hook=lambda address, decoded: None)

    def run(cpu):
        cpu.reset()
        return cpu.run(kernel.entry)

    expected = run(blocks)  # binds the blocks
    run(steps)
    block_s, step_s, speedup = _paired_medians(
        lambda: run(blocks), lambda: run(steps), ISS_PAIRS)
    assert expected.finished
    assert run(steps) == expected == run(blocks)
    _record("iss[mat_mult_16bit,paper]", block_s, step_s, speedup=speedup,
            ns_per_cycle=round(1e9 * block_s / expected.cycles, 1))
