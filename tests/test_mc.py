"""Tests for the Monte-Carlo runner, aggregation and sweeps."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.suite import build_kernel
from repro.fi.base import FaultInjector, NullInjector
from repro.mc.results import McPoint, TrialResult
from repro.mc import runner
from repro.mc.runner import golden_cycles, golden_run, run_point, \
    run_trial
from repro.mc.stats import geometric_mean, mean, std, wilson_interval
from repro.mc.sweep import FrequencySweep, frequency_grid, \
    sweep_frequencies
from repro.sim.cpu import Cpu
from repro.sim.machine import MachineConfig


class _AggressiveInjector(FaultInjector):
    """Flips the low 4 bits of every ALU result: kills any kernel."""

    def fault_mask(self, mnemonic):
        return 0xF


class _RareInjector(FaultInjector):
    """One single-bit fault roughly every `period` ALU cycles."""

    def __init__(self, rng, period=997):
        super().__init__()
        self._rng = rng
        self._period = period

    def fault_mask(self, mnemonic):
        return 1 if self._rng.random() < 1.0 / self._period else 0


class TestStats:
    def test_wilson_basics(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high

    def test_wilson_edges(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high > 0.0
        low, high = wilson_interval(50, 50)
        assert high == 1.0 and low < 1.0

    def test_wilson_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 2)

    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=50)
    def test_wilson_contains_point_estimate(self, successes, trials):
        successes = min(successes, trials)
        low, high = wilson_interval(successes, trials)
        assert low - 1e-12 <= successes / trials <= high + 1e-12

    def test_mean_std(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0
        assert std([2.0, 2.0]) == 0.0
        assert std([1.0]) == 0.0
        assert std([1.0, 3.0]) == pytest.approx(np.std([1, 3], ddof=1))

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([0.0, 1.0])


class TestRunner:
    def test_null_injector_run_is_golden(self):
        kernel = build_kernel("median", "quick")
        trial = run_trial(kernel, NullInjector())
        assert trial.finished and trial.correct
        assert trial.fault_count == 0
        assert trial.error_value == 0.0

    def test_aggressive_injector_breaks_run(self):
        kernel = build_kernel("median", "quick")
        trial = run_trial(kernel, _AggressiveInjector())
        assert not trial.correct
        assert trial.fault_count > 0

    def test_golden_cycles_cached(self):
        kernel = build_kernel("median", "quick")
        first = golden_cycles(kernel)
        (golden,) = kernel._golden.values()
        assert golden.cycles == first
        assert golden_cycles(kernel) == first
        assert golden_run(kernel) is golden

    def test_golden_cache_keyed_by_machine_config(self):
        kernel = build_kernel("median", "quick")
        base = golden_run(kernel, MachineConfig())
        # The cycle budget is not part of the key ...
        assert golden_run(kernel, MachineConfig(max_cycles=10**6)) is base
        # ... but the memory map is: with the instruction memory moved,
        # every absolute address in the program is off and the kernel
        # no longer runs, where a config-blind cache would have served
        # the first config's answer.
        with pytest.raises(RuntimeError):
            golden_run(kernel, MachineConfig(imem_base=0x100))
        relaxed = golden_run(kernel, MachineConfig(detect_self_jump=False))
        assert relaxed is not base
        assert len(kernel._golden) == 2
        assert relaxed.cycles == base.cycles
        assert relaxed.result == base.result
        assert np.array_equal(relaxed.mnemonic_ids, base.mnemonic_ids)

    def test_point_cpu_is_freed_without_the_cyclic_gc(self, monkeypatch):
        cpus, memories, injectors = [], [], []

        class RecordingCpu(Cpu):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                cpus.append(weakref.ref(self))
                memories.append(weakref.ref(self.dmem))

        def factory(rng):
            injector = _AggressiveInjector()
            injectors.append(weakref.ref(injector))
            return injector

        monkeypatch.setattr(runner, "Cpu", RecordingCpu)
        kernel = build_kernel("median", "quick")
        gc.disable()
        try:
            point = run_point(kernel, factory, n_trials=3, seed=3)
            assert point.n_trials == 3 and point.p_correct == 0.0
            # Trials that abort leave their exception behind; it must
            # not keep the CPU alive either.
            assert point.p_finished < 1.0
            assert cpus and len(injectors) == 1
            assert all(ref() is None for ref in cpus + memories + injectors)
        finally:
            gc.enable()

    def test_budget_bounds_runaway_runs(self):
        kernel = build_kernel("median", "quick")
        budget = 4 * golden_cycles(kernel) + 1000
        trial = run_trial(kernel, _AggressiveInjector())
        assert trial.cycles <= budget

    def test_run_point_aggregates(self, rng):
        kernel = build_kernel("median", "quick")
        point = run_point(kernel, lambda r: _RareInjector(r, period=50),
                          n_trials=8, seed=3)
        assert point.n_trials == 8
        assert 0.0 <= point.p_finished <= 1.0
        assert point.p_correct <= point.p_finished

    def test_run_point_reproducible(self):
        kernel = build_kernel("median", "quick")
        a = run_point(kernel, lambda r: _RareInjector(r), n_trials=6,
                      seed=9)
        b = run_point(kernel, lambda r: _RareInjector(r), n_trials=6,
                      seed=9)
        assert [t.fault_count for t in a.trials] == \
            [t.fault_count for t in b.trials]

    def test_run_point_validation(self):
        kernel = build_kernel("median", "quick")
        with pytest.raises(ValueError):
            run_point(kernel, lambda r: NullInjector(), n_trials=0)


def _trial(finished, correct, error=0.0, faults=0, kcycles=1000):
    return TrialResult(finished=finished, correct=correct,
                       error_value=error, relative_error=error,
                       fault_count=faults, kernel_cycles=kcycles,
                       alu_cycles=500, cycles=kcycles + 10,
                       abort_reason=None if finished else "infinite-loop")


class TestMcPoint:
    def test_probabilities(self):
        point = McPoint(label="x")
        point.add(_trial(True, True))
        point.add(_trial(True, False, error=0.5))
        point.add(_trial(False, False))
        assert point.p_finished == pytest.approx(2 / 3)
        assert point.p_correct == pytest.approx(1 / 3)

    def test_error_only_over_finished(self):
        point = McPoint(label="x")
        point.add(_trial(True, False, error=0.4))
        point.add(_trial(False, False, error=0.0))
        assert point.mean_error_of_finished == pytest.approx(0.4)

    def test_fi_rate(self):
        point = McPoint(label="x")
        point.add(_trial(True, True, faults=10, kcycles=1000))
        point.add(_trial(True, True, faults=30, kcycles=1000))
        assert point.fi_rate_per_kcycle == pytest.approx(20.0)

    def test_abort_histogram(self):
        point = McPoint(label="x")
        point.add(_trial(False, False))
        point.add(_trial(False, False))
        point.add(_trial(True, True))
        assert point.abort_histogram() == {"infinite-loop": 2}

    def test_intervals(self):
        point = McPoint(label="x")
        for _ in range(10):
            point.add(_trial(True, True))
        low, high = point.correct_interval()
        assert low > 0.5 and high == 1.0

    def test_empty_point(self):
        point = McPoint(label="x")
        assert point.p_finished == 0.0
        assert point.finished_interval() == (0.0, 0.0)

    def test_summary_keys(self):
        point = McPoint(label="x")
        point.add(_trial(True, True))
        summary = point.summary()
        assert set(summary) == {"n_trials", "p_finished", "p_correct",
                                "fi_rate_per_kcycle", "mean_error",
                                "mean_relative_error"}


class TestSweep:
    def _synthetic_sweep(self, correctness):
        points = []
        for p in correctness:
            point = McPoint(label="p")
            n_ok = round(p * 10)
            for _ in range(n_ok):
                point.add(_trial(True, True))
            for _ in range(10 - n_ok):
                point.add(_trial(False, False))
            points.append(point)
        return FrequencySweep(
            kernel_name="synthetic",
            frequencies_hz=[700e6 + i * 1e6 for i in range(len(points))],
            points=points,
            sta_limit_hz=700e6)

    def test_poff_detection(self):
        sweep = self._synthetic_sweep([1.0, 1.0, 0.9, 0.0])
        assert sweep.poff_hz() == 702e6
        assert sweep.poff_gain_over_sta() == pytest.approx(2 / 700)

    def test_poff_beyond_sweep(self):
        sweep = self._synthetic_sweep([1.0, 1.0])
        assert sweep.poff_hz() is None
        assert sweep.poff_gain_over_sta() is None

    def test_metric_series_and_rows(self):
        sweep = self._synthetic_sweep([1.0, 0.5])
        series = sweep.metric_series("p_correct")
        assert series == [1.0, 0.5]
        rows = sweep.rows()
        assert rows[0]["frequency_mhz"] == pytest.approx(700.0)

    def test_frequency_grid(self):
        grid = frequency_grid(700e6, 0.1, 5)
        assert len(grid) == 5
        assert grid[0] == pytest.approx(630e6)
        assert grid[-1] == pytest.approx(770e6)
        with pytest.raises(ValueError):
            frequency_grid(700e6, 0.1, 1)

    def test_frequency_grid_rejects_nonphysical_spans(self):
        # span_rel >= 1 emits zero/negative frequencies, which poison
        # every downstream period computation (1e12 / f).
        for span in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="span_rel"):
                frequency_grid(700e6, span, 5)
        # The degenerate but physical extremes still work.
        assert frequency_grid(700e6, 0.0, 2) == [700e6, 700e6]
        assert min(frequency_grid(700e6, 0.999, 3)) > 0

    def test_end_to_end_sweep_orders_frequencies(self):
        kernel = build_kernel("median", "quick")
        sweep = sweep_frequencies(
            kernel,
            lambda f, rng: _RareInjector(rng, period=10**9),
            frequencies_hz=[800e6, 700e6],
            n_trials=2,
            sta_limit_hz=707e6,
            seed=1)
        assert sweep.frequencies_hz == [700e6, 800e6]
        assert all(point.n_trials == 2 for point in sweep.points)
