"""Fault schedules: scheduled trials equal per-op ones, exactly.

A model's :meth:`~repro.fi.base.FaultInjector.next_fault` settles a
fault-free trial without the ISS and runs a faulted one under the
runner's counting hook; the per-op reference is the same injector
class with ``next_fault`` returning None, so every one of its trials
calls ``fault_mask`` on every ALU op.  Both must produce the same
:class:`McPoint` field for field, and leave the random streams where
the per-op run leaves them (checked indirectly: later trials of a
serial point would differ otherwise).  :class:`TestPaths` pins each
way a scheduled trial can end -- and asserts from counters that it
happened, so the suite cannot pass vacuously.
"""

from __future__ import annotations

import collections
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro import obs
from repro.bench.kernel import assemble_kernel, source_header
from repro.bench.suite import build_kernel
from repro.fi.base import FAULT_SEMANTICS, NullInjector
from repro.fi.model_a import FixedProbabilityInjector
from repro.fi.model_b import StaInjector
from repro.fi.model_bplus import StaNoiseInjector
from repro.fi.model_c import StatisticalInjector
from repro.fi.sampling import BitSampler
from repro.fi.streams import EffectivePeriodStream
from repro.isa.instructions import ALU_MNEMONICS
from repro.mc import runner
from repro.mc.runner import golden_run, run_point
from repro.timing.noise import VoltageNoise

#: Noise clipped at 3 sigma: the clip atom is small enough that points
#: near the onset mix speculated and scheduled trials.
NOISE = VoltageNoise(0.010, clip_sigmas=3.0)
QUIET = VoltageNoise(0.0)

SLOW = settings(max_examples=6, deadline=None)


def _per_op(cls):
    """``cls`` without a schedule: every trial runs per-op in the ISS."""
    return type(f"PerOp{cls.__name__}", (cls,),
                {"next_fault": lambda self, mnemonic_ids, start: None})


@pytest.fixture(scope="module")
def kernel():
    instance = build_kernel("median", "quick")
    golden_run(instance)
    return instance


def _countdown_kernel(count: int = 300):
    """A loop of one ``l.addi`` per pass, its count loaded from memory.

    A fault that raises the count keeps every ALU mnemonic golden and
    runs past the golden sequence (until the cycle budget aborts it).
    """
    source = source_header() + f"""
start:
    l.movhi r4, hi(count)
    l.ori   r4, r4, lo(count)
    l.lwz   r5, 0(r4)
    l.nop   FI_ON
loop:
    l.addi  r5, r5, -1
    l.sfgts r5, r0
    l.bf    loop
    l.nop
    l.nop   FI_OFF
    l.sw    4(r4), r5
    l.nop   0x1

.org DATA
count:
    .word {count}
result:
    .space 4
"""
    return assemble_kernel(
        "countdown", source, "start", "result", 1, [0], "wrong",
        lambda outputs, golden: float(outputs != golden),
        lambda outputs, golden: float(outputs != golden),
        {"count": count})


@pytest.fixture()
def paths(monkeypatch):
    """Counts how the scheduled trials of a test end.

    ``completed`` ran the whole golden sequence on the schedule;
    ``stopped early`` ended (abort or exit) before the golden end
    without leaving it; ``diverged`` met another mnemonic mid-run;
    ``outlived`` kept every golden mnemonic and ran past the end.
    """
    seen = collections.Counter()
    schedule = runner._schedule

    def spy(injector, golden, saved, fault, core):
        hook, settle = schedule(injector, golden, saved, fault, core)
        names = golden.mnemonics
        off = []

        def spy_hook(mnemonic, result):
            i = injector.alu_cycles
            if not off and (i == len(names) or mnemonic != names[i]):
                off.append(i)
            return hook(mnemonic, result)

        def spy_settle():
            stopped = injector.alu_cycles
            diverged = settle()
            if diverged:
                seen["outlived" if off[0] == len(names)
                     else "diverged"] += 1
            else:
                seen["completed" if stopped == len(names)
                     else "stopped early"] += 1
            return diverged
        return spy_hook, spy_settle

    monkeypatch.setattr(runner, "_schedule", spy)
    return seen


def _assert_exact(kernel, make, n_trials, seed):
    """Scheduled and per-op points of one injector recipe agree."""
    scheduled = run_point(kernel, lambda rng: make(False, rng), n_trials,
                          seed=seed)
    per_op = run_point(kernel, lambda rng: make(True, rng), n_trials,
                       seed=seed)
    assert scheduled == per_op
    assert scheduled.to_json() == per_op.to_json()
    return scheduled


class TestExactness:
    @SLOW
    @given(p_bit=st.sampled_from([0.0, 1e-5, 3e-5, 1e-3]),
           semantics=st.sampled_from(FAULT_SEMANTICS),
           seed=st.integers(0, 2**16))
    @example(p_bit=2e-5, semantics="stale", seed=3)
    def test_model_a(self, kernel, p_bit, semantics, seed):
        def make(per_op, rng):
            cls = _per_op(FixedProbabilityInjector) if per_op \
                else FixedProbabilityInjector
            return cls(p_bit, rng=rng, semantics=semantics)
        _assert_exact(kernel, make, 6, seed)

    @SLOW
    @given(mhz=st.floats(600.0, 800.0),
           semantics=st.sampled_from(FAULT_SEMANTICS))
    def test_model_b(self, kernel, alu, mhz, semantics):
        def make(per_op, rng):
            cls = _per_op(StaInjector) if per_op else StaInjector
            return cls(alu, mhz * 1e6, semantics=semantics)
        _assert_exact(kernel, make, 3, 0)

    @SLOW
    @given(mhz=st.floats(615.0, 640.0),
           noise=st.sampled_from([QUIET, NOISE]),
           semantics=st.sampled_from(FAULT_SEMANTICS),
           seed=st.integers(0, 2**16))
    @example(mhz=626.0, noise=NOISE, semantics="flip", seed=1)
    @example(mhz=700.0, noise=QUIET, semantics="stale", seed=1)
    def test_model_bplus(self, kernel, alu, vdd_model, mhz, noise,
                         semantics, seed):
        def make(per_op, rng):
            cls = _per_op(StaNoiseInjector) if per_op \
                else StaNoiseInjector
            return cls(alu, mhz * 1e6, noise, vdd_model=vdd_model,
                       rng=rng, semantics=semantics)
        _assert_exact(kernel, make, 6, seed)

    @settings(max_examples=10, deadline=None)
    @given(mhz=st.floats(672.0, 694.0),
           noise=st.sampled_from([QUIET, NOISE]),
           semantics=st.sampled_from(FAULT_SEMANTICS),
           seed=st.integers(0, 2**16))
    @example(mhz=684.0, noise=NOISE, semantics="stale", seed=1)
    @example(mhz=770.0, noise=QUIET, semantics="flip", seed=1)
    def test_model_c(self, kernel, characterization, vdd_model, mhz,
                     noise, semantics, seed):
        def make(per_op, rng):
            cls = _per_op(StatisticalInjector) if per_op \
                else StatisticalInjector
            return cls(characterization, mhz * 1e6, noise,
                       vdd_model=vdd_model, rng=rng, semantics=semantics)
        _assert_exact(kernel, make, 6, seed)

    @pytest.mark.parametrize("mhz", [600.0, 684.0])
    def test_model_c_across_refill_seam(self, kernel, characterization,
                                        vdd_model, mhz):
        """One serial stream spans more than one 65,536-value block."""
        # Faulted trials may stop early, so budget half a block extra.
        n_trials = 3 * 65536 // (2 * len(golden_run(kernel).mnemonic_ids))

        def make(per_op, rng):
            cls = _per_op(StatisticalInjector) if per_op \
                else StatisticalInjector
            return cls(characterization, mhz * 1e6, NOISE,
                       vdd_model=vdd_model, rng=rng)
        point = _assert_exact(kernel, make, n_trials, 5)
        assert sum(t.alu_cycles for t in point.trials) > 65536


class _SeamWatch(StatisticalInjector):
    """Model C that counts schedule steps straddling a block refill."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seams = collections.Counter()

    def next_fault(self, mnemonic_ids, start):
        block = self._stream._values
        fault = super().next_fault(mnemonic_ids, start)
        if fault[0] < len(mnemonic_ids) and self._stream._values is not block:
            self.seams["hit"] += 1
        return fault

    def restore(self, snapshot):
        if snapshot[1] is not self._stream._values:
            self.seams["rewind"] += 1
        super().restore(snapshot)


class TestPaths:
    """Every way a scheduled trial ends, each shown to happen."""

    def _model_c(self, characterization, vdd_model, mhz, **kwargs):
        def make(per_op, rng):
            cls = _per_op(StatisticalInjector) if per_op \
                else StatisticalInjector
            return cls(characterization, mhz * 1e6, NOISE,
                       vdd_model=vdd_model, rng=rng, **kwargs)
        return make

    def test_faulted_to_completion(self, kernel, characterization,
                                   vdd_model, paths):
        make = self._model_c(characterization, vdd_model, 700.0,
                             semantics="stale")
        point = _assert_exact(kernel, make, 8, 1)
        assert paths["completed"] > 0
        assert any(t.fault_count and t.finished for t in point.trials)

    def test_divergence_mid_run(self, kernel, paths):
        def make(per_op, rng):
            cls = _per_op(FixedProbabilityInjector) if per_op \
                else FixedProbabilityInjector
            return cls(1e-3, rng=rng, semantics="stale")
        _assert_exact(kernel, make, 8, 2)
        assert paths["diverged"] > 0

    def test_abort_before_golden_end(self, kernel, characterization,
                                     vdd_model, paths):
        make = self._model_c(characterization, vdd_model, 700.0)
        point = _assert_exact(kernel, make, 8, 1)
        assert paths["stopped early"] > 0
        n = len(golden_run(kernel).mnemonic_ids)
        assert any(not t.finished and t.alu_cycles < n
                   for t in point.trials)

    @pytest.mark.parametrize("semantics", FAULT_SEMANTICS)
    def test_run_outlives_golden_sequence(self, paths, semantics):
        countdown = _countdown_kernel()

        def make(per_op, rng):
            cls = _per_op(FixedProbabilityInjector) if per_op \
                else FixedProbabilityInjector
            return cls(1e-4, rng=rng, semantics=semantics)
        point = _assert_exact(countdown, make, 12, 4)
        assert paths["outlived"] > 0
        n = len(golden_run(countdown).mnemonic_ids)
        assert any(t.alu_cycles > n for t in point.trials)

    def test_hit_and_divergence_across_refill_seam(
            self, characterization, vdd_model, paths):
        """A search and a rollback each span a 65,536-value refill."""
        kmeans = build_kernel("kmeans", "quick")
        injectors = []

        def make(per_op, rng):
            cls = _per_op(StatisticalInjector) if per_op else _SeamWatch
            injector = cls(characterization, 675e6, NOISE,
                           vdd_model=vdd_model, rng=rng)
            injectors.append(injector)
            return injector
        _assert_exact(kmeans, make, 30, 7)
        seams = injectors[0].seams
        # No trial stops early, so every rollback is a divergence's.
        assert paths["diverged"] > 0 and not paths["stopped early"]
        assert seams["hit"] > 0 and seams["rewind"] > 0


def _core():
    """Stand-in for the CPU run state a schedule hook publishes on."""
    return types.SimpleNamespace(golden=b"", stop=-1)


def _feed(hook, injector, core, ops, results, spans):
    """The hook's outputs over ``ops``, fed in blocks as the ISS feeds it.

    ``spans`` gives the ALU op count of each next block (1 once it
    runs out).  A block whose ops the published schedule lets run hook-free
    -- golden, all before ``core.stop`` -- is counted and latched
    without a hook call, as the ISS's hook-free block does; any other
    calls the hook on each op.
    """
    got = []
    spans = iter(spans)
    j = 0
    while j < len(ops):
        k = min(next(spans, 1), len(ops) - j)
        i = injector.alu_cycles
        ids = bytes(ALU_MNEMONICS.index(m) for m in ops[j:j + k])
        if i + k <= core.stop and core.golden.startswith(ids, i):
            injector.alu_cycles = i + k
            injector._last_latched = results[j + k - 1]
            got += results[j:j + k]
        else:
            got += [hook(m, r) for m, r in zip(ops[j:j + k],
                                               results[j:j + k])]
        j += k
    return got


class TestHookCuts:
    """The schedule hook equals per-op ``on_alu`` wherever a run leaves.

    Drives the runner's hook directly with the golden mnemonics up to a
    cut, then either stops, switches mnemonic, or runs past the golden
    end; cuts include every op where a scan began and its neighbours,
    the edges of the per-op stretch after each fault.  The ops come in
    blocks of random length, and every block the published schedule
    allows runs hook-free (see :func:`_feed`).
    """

    N_OPS = 300

    @staticmethod
    def _golden(seed):
        ids = np.random.default_rng(seed).integers(
            0, len(ALU_MNEMONICS), TestHookCuts.N_OPS).astype(np.uint8)
        return runner.GoldenRun(cycles=0, mnemonic_ids=ids, result=None)

    @staticmethod
    def _scan_starts(make, golden):
        """Ops where the hook starts a scan on the golden sequence."""
        injector = make()
        starts = [0]
        scan = injector.next_fault
        injector.next_fault = lambda ids, start: (
            starts.append(start) or scan(ids, start))
        fault = scan(golden.mnemonic_ids, 0)
        hook, settle = runner._schedule(injector, golden, None, fault,
                                        _core())
        injector.begin_run()
        for mnemonic in golden.mnemonics:
            hook(mnemonic, 0)
        return starts

    def _assert_cut_exact(self, make, golden, cut, leave, data):
        names = golden.mnemonics
        n = len(names)
        tail = data.draw(st.lists(st.sampled_from(ALU_MNEMONICS),
                                  max_size=40))
        ops = names[:cut]
        if leave == "switch" and cut < n:
            other = ALU_MNEMONICS[(ALU_MNEMONICS.index(names[cut]) + 1)
                                  % len(ALU_MNEMONICS)]
            ops = ops + [other] + tail
        elif leave == "outlive":
            ops = names + tail
        results = data.draw(st.lists(st.integers(0, 2**32 - 1),
                                     min_size=len(ops), max_size=len(ops)))
        spans = data.draw(st.lists(st.integers(1, 40), max_size=60))
        scheduled, per_op = make(), make()
        saved = scheduled.snapshot()
        fault = scheduled.next_fault(golden.mnemonic_ids, 0)
        assume(fault[0] < n)  # a trial the runner runs on its schedule
        core = _core()
        hook, settle = runner._schedule(scheduled, golden, saved, fault,
                                        core)
        scheduled.begin_run()
        got = _feed(hook, scheduled, core, ops, results, spans)
        settle()
        per_op.begin_run()
        assert got == [per_op.on_alu(m, r) for m, r in zip(ops, results)]
        for field in ("alu_cycles", "fault_count", "faulty_cycles",
                      "_last_latched"):
            assert getattr(scheduled, field) == getattr(per_op, field)
        # The streams continue identically.
        assert [scheduled.fault_mask(m) for m in names] == \
            [per_op.fault_mask(m) for m in names]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16),
           semantics=st.sampled_from(FAULT_SEMANTICS),
           leave=st.sampled_from(["stop", "switch", "outlive"]),
           data=st.data())
    def test_model_a(self, seed, semantics, leave, data):
        golden = self._golden(seed)

        def make():
            return FixedProbabilityInjector(
                3e-4, rng=np.random.default_rng(seed), semantics=semantics)
        starts = self._scan_starts(make, golden)
        cut = data.draw(st.sampled_from(sorted(
            {min(max(s + d, 0), self.N_OPS) for s in starts
             for d in (-1, 0, 1)})))
        self._assert_cut_exact(make, golden, cut, leave, data)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16),
           semantics=st.sampled_from(FAULT_SEMANTICS),
           leave=st.sampled_from(["stop", "switch", "outlive"]),
           data=st.data())
    def test_model_c(self, characterization, vdd_model, seed, semantics,
                     leave, data):
        golden = self._golden(seed)

        def make():
            return StatisticalInjector(
                characterization, 700e6, NOISE, vdd_model=vdd_model,
                rng=np.random.default_rng(seed), semantics=semantics)
        starts = self._scan_starts(make, golden)
        cut = data.draw(st.sampled_from(sorted(
            {min(max(s + d, 0), self.N_OPS) for s in starts
             for d in (-1, 0, 1)})))
        self._assert_cut_exact(make, golden, cut, leave, data)


class TestDrawProbabilities:
    """The vectorized per-cycle draw test equals the scalar fast path."""

    @staticmethod
    def _fast_path(injector, mid, period):
        """Probability the live fast path tests its uniform against."""
        grid = injector.characterization.grid
        row = grid.row_index(period)
        if row < 0:
            return None
        p_any = BitSampler.from_probs(grid.probs[mid, row]).p_any
        return p_any if p_any > 0.0 else None

    def test_boundaries(self, characterization, vdd_model):
        injector = StatisticalInjector(
            characterization, 700e6, NOISE, vdd_model=vdd_model,
            rng=np.random.default_rng(0))
        grid = characterization.grid
        grid_periods = grid.periods
        # Each mnemonic's draw limit sits on its first quiet row's period.
        quiet = np.minimum(grid.first_quiet_rows, len(grid_periods) - 1)
        edges = np.concatenate(
            [grid_periods[::64], grid_periods[-3:], grid_periods[quiet]]
            + [cdfs.row_max_sorted[-3:]
               for cdfs in characterization.cdfs.values()])
        candidates = np.concatenate([
            edges, np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            np.random.default_rng(1).uniform(
                0.3 * grid_periods[0], 1.1 * grid_periods[-1], 500)])
        for mid in range(len(ALU_MNEMONICS)):
            ids = np.full(len(candidates), mid, dtype=np.uint8)
            expected = [self._fast_path(injector, mid, period)
                        for period in candidates.tolist()]
            drawing, probs = injector._draw_probs(ids, candidates)
            assert drawing.tolist() == \
                [at for at, p in enumerate(expected) if p is not None]
            assert probs.tolist() == [p for p in expected if p is not None]


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


    @given(seed=st.integers(0, 2**16), block=st.integers(1, 9),
           n=st.integers(1, 40), first=st.integers(1, 5),
           data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_take_and_give_back_match_next(self, vdd_model, seed, block,
                                           n, first, data):
        """Taking through value ``hit`` and giving the rest of its slice
        back leaves the stream as ``hit + 1`` calls to next() do."""
        def stream():
            return EffectivePeriodStream(
                1400.0, 0.7, 0.7, vdd_model, NOISE,
                np.random.default_rng(seed), block=block)
        hit = data.draw(st.integers(0, n - 1))
        sliced, stepped = stream(), stream()
        read = 0
        for chunk in sliced.take(n, first):
            read += len(chunk)
            if read > hit:
                sliced.give_back(read - hit - 1)
                break
        for _ in range(hit + 1):
            stepped.next()
        assert [sliced.next() for _ in range(2 * block)] == \
            [stepped.next() for _ in range(2 * block)]
        assert sliced._rng.random() == stepped._rng.random()


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
        run_point(kernel, lambda rng: _per_op(StaInjector)(alu, 900e6), 1)
        run_point(kernel, lambda rng: FixedProbabilityInjector(
            1e-3, rng=rng, semantics="stale"), 3, seed=2)
        obs.shutdown()
        records = obs.read_trace(trace)
        totals = obs.counter_totals(records)
        assert totals["mc.trials.speculated"] == 3
        assert totals["mc.trials.live"] == 1
        scheduled = totals.get("mc.trials.scheduled", 0)
        diverged = totals["mc.trials.diverged"]
        assert scheduled + diverged == 4
        stats = obs.render_stats(records)
        assert "mc speculation hit rate" in stats
        assert f"{3 / 8:>11.1%}" in stats
        assert "mc divergence rate" in stats
        assert f"{diverged / 4:>11.1%}" in stats

    def test_hook_free_share(self, kernel, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        point = run_point(kernel, lambda rng: FixedProbabilityInjector(
            1e-5, rng=rng), 6, seed=1)
        obs.shutdown()
        records = obs.read_trace(trace)
        totals = obs.counter_totals(records)
        ran = [t for t in point.trials if t.fault_count]
        assert ran and len(ran) == totals.get("mc.trials.scheduled", 0) \
            + totals.get("mc.trials.diverged", 0)
        assert totals["mc.alu.scheduled"] == sum(t.alu_cycles for t in ran)
        free = totals["sim.alu.free"]
        # Ops up to each trial's first fault run hook-free; the ops at a
        # fault, after it and after a divergence call the hook.
        assert 0 < free < totals["mc.alu.scheduled"]
        stats = obs.render_stats(records)
        assert "iss hook-free share" in stats
        assert f"{free / totals['mc.alu.scheduled']:>11.1%}" in stats
