"""Golden-run speculation: speculated trials equal live ones, exactly.

A speculating injector settles a fault-free trial without the ISS; the
live reference is the same injector class with ``speculate`` returning
False, so every one of its trials runs in the ISS.  Both must produce
the same :class:`McPoint` field for field, and leave the random streams
where the live run leaves them (checked indirectly: later trials of a
serial point would diverge otherwise).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.bench.suite import build_kernel
from repro.fi.base import FAULT_SEMANTICS, NullInjector
from repro.fi.model_a import FixedProbabilityInjector
from repro.fi.model_b import StaInjector
from repro.fi.model_bplus import StaNoiseInjector
from repro.fi.model_c import CORRELATION_MODES, StatisticalInjector
from repro.fi.sampling import BitSampler
from repro.fi.streams import EffectivePeriodStream
from repro.isa.instructions import ALU_MNEMONICS
from repro.mc import runner
from repro.mc.runner import golden_run, run_point
from repro.timing.noise import VoltageNoise

#: Noise clipped at 3 sigma: the clip atom is small enough that points
#: near the onset mix speculated and live trials.
NOISE = VoltageNoise(0.010, clip_sigmas=3.0)
QUIET = VoltageNoise(0.0)

SLOW = settings(max_examples=6, deadline=None)


def _live(cls):
    """``cls`` with speculation off: every trial runs in the ISS."""
    return type(f"Live{cls.__name__}", (cls,),
                {"speculate": lambda self, mnemonic_ids: False})


@pytest.fixture(scope="module")
def kernel():
    instance = build_kernel("median", "quick")
    golden_run(instance)
    return instance


def _assert_exact(kernel, make, n_trials, seed):
    """Speculating and live points of one injector recipe agree."""
    fast = run_point(kernel, lambda rng: make(False, rng), n_trials,
                     seed=seed)
    live = run_point(kernel, lambda rng: make(True, rng), n_trials,
                     seed=seed)
    assert fast.trials == live.trials
    assert fast.to_json() == live.to_json()
    return fast


class TestExactness:
    @SLOW
    @given(p_bit=st.sampled_from([0.0, 1e-5, 3e-5, 1e-3]),
           semantics=st.sampled_from(FAULT_SEMANTICS),
           seed=st.integers(0, 2**16))
    @example(p_bit=2e-5, semantics="stale", seed=3)
    def test_model_a(self, kernel, p_bit, semantics, seed):
        def make(live, rng):
            cls = _live(FixedProbabilityInjector) if live \
                else FixedProbabilityInjector
            return cls(p_bit, rng=rng, semantics=semantics)
        _assert_exact(kernel, make, 6, seed)

    @SLOW
    @given(mhz=st.floats(600.0, 800.0),
           semantics=st.sampled_from(FAULT_SEMANTICS))
    def test_model_b(self, kernel, alu, mhz, semantics):
        def make(live, rng):
            cls = _live(StaInjector) if live else StaInjector
            return cls(alu, mhz * 1e6, semantics=semantics)
        _assert_exact(kernel, make, 3, 0)

    @SLOW
    @given(mhz=st.floats(615.0, 640.0),
           noise=st.sampled_from([QUIET, NOISE]),
           semantics=st.sampled_from(FAULT_SEMANTICS),
           seed=st.integers(0, 2**16))
    @example(mhz=626.0, noise=NOISE, semantics="flip", seed=1)
    def test_model_bplus(self, kernel, alu, vdd_model, mhz, noise,
                         semantics, seed):
        def make(live, rng):
            cls = _live(StaNoiseInjector) if live else StaNoiseInjector
            return cls(alu, mhz * 1e6, noise, vdd_model=vdd_model,
                       rng=rng, semantics=semantics)
        _assert_exact(kernel, make, 6, seed)

    @settings(max_examples=10, deadline=None)
    @given(mhz=st.floats(672.0, 694.0),
           noise=st.sampled_from([QUIET, NOISE]),
           correlation=st.sampled_from(CORRELATION_MODES),
           semantics=st.sampled_from(FAULT_SEMANTICS),
           seed=st.integers(0, 2**16))
    @example(mhz=684.0, noise=NOISE, correlation="independent",
             semantics="stale", seed=1)
    @example(mhz=684.0, noise=NOISE, correlation="joint",
             semantics="flip", seed=1)
    @example(mhz=770.0, noise=QUIET, correlation="independent",
             semantics="flip", seed=1)
    def test_model_c(self, kernel, characterization, vdd_model, mhz,
                     noise, correlation, semantics, seed):
        def make(live, rng):
            cls = _live(StatisticalInjector) if live \
                else StatisticalInjector
            return cls(characterization, mhz * 1e6, noise,
                       vdd_model=vdd_model, rng=rng,
                       correlation=correlation, semantics=semantics)
        _assert_exact(kernel, make, 6, seed)

    @pytest.mark.parametrize("mhz", [600.0, 684.0])
    def test_model_c_across_refill_seam(self, kernel, characterization,
                                        vdd_model, mhz):
        """One serial stream spans more than one 65,536-value block."""
        # Faulted trials may stop early, so budget half a block extra.
        n_trials = 3 * 65536 // (2 * len(golden_run(kernel).mnemonic_ids))

        def make(live, rng):
            cls = _live(StatisticalInjector) if live \
                else StatisticalInjector
            return cls(characterization, mhz * 1e6, NOISE,
                       vdd_model=vdd_model, rng=rng)
        point = _assert_exact(kernel, make, n_trials, 5)
        assert sum(t.alu_cycles for t in point.trials) > 65536


class TestDrawProbabilities:
    """The vectorized per-cycle draw test equals the scalar fast path."""

    @staticmethod
    def _fast_path(injector, mnemonic, period):
        """Probability the live fast path tests its uniform against."""
        grid = injector.characterization.grids[mnemonic]
        row = grid.row_index(period)
        if row < 0:
            return None
        if injector.correlation == "independent":
            p_any = BitSampler.from_probs(grid.probs[row]).p_any
            return p_any if p_any > 0.0 else None
        cdfs = injector.characterization.cdfs[mnemonic]
        violating = cdfs.n_cycles - int(np.searchsorted(
            cdfs.row_max_sorted, period, side="right"))
        return violating / cdfs.n_cycles if violating > 0 else None

    @pytest.mark.parametrize("correlation", CORRELATION_MODES)
    def test_boundaries(self, characterization, vdd_model, correlation):
        injector = StatisticalInjector(
            characterization, 700e6, NOISE, vdd_model=vdd_model,
            rng=np.random.default_rng(0), correlation=correlation)
        grid_periods = next(iter(characterization.grids.values())).periods
        edges = np.concatenate(
            [grid_periods[::64], grid_periods[-3:]]
            + [cdfs.row_max_sorted[-3:]
               for cdfs in characterization.cdfs.values()])
        candidates = np.concatenate([
            edges, np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            np.random.default_rng(1).uniform(
                0.3 * grid_periods[0], 1.1 * grid_periods[-1], 500)])
        for mid, mnemonic in enumerate(ALU_MNEMONICS):
            ids = np.full(len(candidates), mid, dtype=np.uint8)
            expected = [self._fast_path(injector, mnemonic, period)
                        for period in candidates.tolist()]
            assert injector._draw_probs(ids, candidates).tolist() == \
                [p for p in expected if p is not None]


class TestRandomStreams:
    @given(seed=st.integers(0, 2**32 - 1),
           plan=st.lists(st.tuples(st.integers(0, 40),
                                   st.integers(1, 40)),
                         min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_vector_uniforms_equal_scalar_draws(self, seed, plan):
        vector = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        for uniforms, refill in plan:
            assert vector.random(uniforms).tolist() == \
                [scalar.random() for _ in range(uniforms)]
            assert np.array_equal(NOISE.sample(refill, vector),
                                  NOISE.sample(refill, scalar))

    @given(seed=st.integers(0, 2**32 - 1), uniforms=st.integers(0, 40),
           refill=st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_state_round_trip_replays(self, seed, uniforms, refill):
        rng = np.random.default_rng(seed)
        rng.random(seed % 7)
        state = rng.bit_generator.state

        def draws():
            return (rng.random(uniforms).tolist(),
                    NOISE.sample(refill, rng).tolist(), rng.random())
        first = draws()
        rng.bit_generator.state = state
        assert draws() == first

    @given(seed=st.integers(0, 2**16), block=st.integers(1, 9),
           n=st.integers(0, 40), first=st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_take_matches_next_across_seams(self, vdd_model, seed, block,
                                            n, first):
        """Slices equal per-cycle reads, refills land between slices."""
        def stream():
            return EffectivePeriodStream(
                1400.0, 0.7, 0.7, vdd_model, NOISE,
                np.random.default_rng(seed), block=block)
        sliced, stepped = stream(), stream()
        values, lengths, after_slices = [], [], []
        for chunk in sliced.take(n, first):
            values.extend(chunk.tolist())
            lengths.append(len(chunk))
            after_slices.append(sliced._rng.random())
        assert sum(lengths) == n
        expected, after_steps = [], []
        for length in lengths:
            expected.extend(stepped.next() for _ in range(length))
            after_steps.append(stepped._rng.random())
        assert values == expected
        assert after_slices == after_steps
        assert sliced.next() == stepped.next()

    def test_restore_rewinds_stream_and_rng(self, vdd_model):
        stream = EffectivePeriodStream(1400.0, 0.7, 0.7, vdd_model, NOISE,
                                       np.random.default_rng(9), block=5)
        saved = stream.snapshot()
        ahead = [stream.next() for _ in range(12)]
        stream.restore(saved)
        assert [stream.next() for _ in range(12)] == ahead


class _CountingCpu(runner.Cpu):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


@pytest.fixture()
def count_cpus(monkeypatch):
    monkeypatch.setattr(_CountingCpu, "built", 0)
    monkeypatch.setattr(runner, "Cpu", _CountingCpu)
    return _CountingCpu


class TestLazyCpu:
    def test_fault_free_point_builds_no_cpu(self, kernel, characterization,
                                            vdd_model, count_cpus):
        point = run_point(
            kernel, lambda rng: StatisticalInjector(
                characterization, 450e6, NOISE, vdd_model=vdd_model,
                rng=rng), 5, seed=1)
        assert point.p_correct == 1.0
        assert count_cpus.built == 0

    def test_golden_run_is_the_only_build_of_a_new_kernel(
            self, characterization, vdd_model, count_cpus):
        fresh = build_kernel("median", "quick")
        run_point(fresh, lambda rng: StatisticalInjector(
            characterization, 450e6, NOISE, vdd_model=vdd_model, rng=rng),
            5, seed=1)
        assert count_cpus.built == 1

    def test_missed_first_trial_builds_one_cpu(self, kernel, alu,
                                               count_cpus):
        point = run_point(kernel, lambda rng: StaInjector(alu, 900e6), 4)
        assert point.p_correct < 1.0
        assert count_cpus.built == 1


class TestObservability:
    @pytest.fixture(autouse=True)
    def clean_plane(self):
        obs.reset()
        yield
        obs.reset()

    def test_trial_counters_and_hit_rate(self, kernel, alu, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        run_point(kernel, lambda rng: NullInjector(), 3)
        run_point(kernel, lambda rng: StaInjector(alu, 900e6), 1)
        obs.shutdown()
        records = obs.read_trace(trace)
        totals = obs.counter_totals(records)
        assert totals["mc.trials.speculated"] == 3
        assert totals["mc.trials.live"] == 1
        assert "mc speculation hit rate" in obs.render_stats(records)
        assert "75.0%" in obs.render_stats(records)
