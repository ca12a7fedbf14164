"""Tests for the characterization flow: coverage, caching, persistence."""

import numpy as np
import pytest

from repro.experiments.context import ExperimentContext
from repro.fi.model_c import StatisticalInjector
from repro.fi.sampling import BitSampler, any_probability
from repro.isa.instructions import ALU_MNEMONICS
from repro.store import ResultStore
from repro.timing.cdf import CdfGrid, EndpointCdfs
from repro.timing.characterize import (
    AluCharacterization,
    CharacterizationConfig,
    characterization_key,
    clear_cache,
    get_characterization,
)
from repro.timing.noise import VoltageNoise


class TestCoverage:
    def test_all_alu_instructions_characterized(self, characterization):
        assert set(characterization.mnemonics) == set(ALU_MNEMONICS)

    def test_grids_built_for_every_instruction(self, characterization):
        grid = characterization.grid
        assert grid.mnemonics == characterization.mnemonics
        assert grid.probs.shape == (len(grid.mnemonics), len(grid.periods),
                                    32)

    def test_worst_sta_recorded(self, alu, characterization):
        assert characterization.worst_sta_period_ps == pytest.approx(
            alu.worst_sta_period_ps(characterization.config.vdd))

    def test_grid_covers_all_critical_periods(self, characterization):
        periods = characterization.grid.periods
        for cdfs in characterization.cdfs.values():
            assert periods[-1] >= cdfs.row_max_sorted[-1]


class TestCaching:
    def test_cache_returns_same_object(self, alu):
        config = CharacterizationConfig(n_cycles_per_instr=64, seed=11)
        first = get_characterization(alu, config)
        second = get_characterization(alu, config)
        assert first is second

    def test_different_config_rebuilds(self, alu):
        a = get_characterization(
            alu, CharacterizationConfig(n_cycles_per_instr=64, seed=11))
        b = get_characterization(
            alu, CharacterizationConfig(n_cycles_per_instr=64, seed=12))
        assert a is not b

    def test_clear_cache(self, alu):
        config = CharacterizationConfig(n_cycles_per_instr=64, seed=13)
        first = get_characterization(alu, config)
        clear_cache()
        second = get_characterization(alu, config)
        assert first is not second


class TestOlderStoredData:
    """Bodies written while the DTA also had a float settle pipeline
    carry a ``timing_dtype`` config field; they must keep decoding into
    bit-identical tables."""

    @staticmethod
    def _assert_identical(loaded, original):
        assert loaded.config == original.config
        assert loaded.worst_sta_period_ps == original.worst_sta_period_ps
        assert set(loaded.mnemonics) == set(original.mnemonics)
        for mnemonic in original.mnemonics:
            for name in ("critical_rows", "critical_sorted",
                         "row_max_sorted"):
                want = getattr(original.cdfs[mnemonic], name)
                got = getattr(loaded.cdfs[mnemonic], name)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        assert loaded.grid.mnemonics == original.grid.mnemonics
        for name in ("periods", "probs", "p_any", "first_quiet_rows"):
            assert np.array_equal(getattr(loaded.grid, name),
                                  getattr(original.grid, name))

    def test_body_with_timing_dtype_reloads(self, characterization):
        body = characterization.to_json()
        body["config"] = {**body["config"], "timing_dtype": "float64"}
        self._assert_identical(AluCharacterization.from_json(body),
                               characterization)


class TestSharedTables:
    """Model C reads one fault table per characterization."""

    def test_p_any_is_the_independent_any_endpoint_probability(self, alu):
        quick = get_characterization(
            alu, ExperimentContext.create("quick").char_config())
        grid = quick.grid
        assert grid.p_any.tolist() == [
            [any_probability(probs) for probs in table]
            for table in grid.probs]

    def test_injectors_share_row_samplers(self, characterization,
                                          vdd_model, monkeypatch):
        fresh = AluCharacterization.from_json(characterization.to_json())

        def masks():
            injector = StatisticalInjector(
                fresh, 720e6, VoltageNoise(0.010), vdd_model=vdd_model,
                rng=np.random.default_rng(5))
            return [injector.fault_mask("l.mul") for _ in range(2000)]

        first = masks()
        assert any(first)

        def unbuilt(*args, **kwargs):
            raise AssertionError("a second injector built a table")
        monkeypatch.setattr(BitSampler, "from_probs", unbuilt)
        monkeypatch.setattr(CdfGrid, "compile", unbuilt)
        assert masks() == first

    def test_injector_rejects_a_missing_mnemonic(self, characterization,
                                                 vdd_model):
        cdfs = dict(characterization.cdfs)
        del cdfs["l.mul"]
        partial = AluCharacterization(
            characterization.config, cdfs,
            characterization.worst_sta_period_ps)
        with pytest.raises(ValueError, match="l.mul"):
            StatisticalInjector(partial, 700e6, VoltageNoise(0.010),
                                vdd_model=vdd_model)


def _eager_grid(characterization):
    """(periods, probs, p_any, first_quiet_rows) as a characterization
    compiled them when it was built: each endpoint's sorted critical
    periods searched at every grid period."""
    tables = [characterization.cdfs[m] for m in sorted(characterization.cdfs)]
    worst = characterization.worst_sta_period_ps
    slowest = max(float(table.critical_rows.max()) for table in tables)
    periods = np.linspace(0.35 * worst, 1.05 * max(slowest, worst),
                          characterization.config.grid_points)
    probs = np.stack([
        np.stack([table.n_cycles - np.searchsorted(row, periods, "right")
                  for row in np.sort(table.critical_rows.T, axis=1)]).T
        / table.n_cycles
        for table in tables])
    p_any = np.array([1.0 - np.prod(1.0 - table, axis=1) for table in probs])
    return periods, probs, p_any, np.any(probs > 0.0, axis=2).sum(axis=1)


class TestLazyTables:
    """The fault table and the sorted CDF views are built on first use,
    bit for bit as a characterization built them eagerly."""

    @pytest.mark.parametrize("scale", ["quick", "default"])
    def test_lazy_views_equal_eager_ones(self, alu, scale, tmp_path):
        fresh = get_characterization(
            alu, ExperimentContext.create(scale).char_config())
        store = ResultStore(tmp_path / "store")
        key = characterization_key(alu, fresh.config)
        store.put(key, fresh)
        loaded = store.get(key)
        assert "grid" not in vars(loaded)
        for characterization in (loaded, fresh):
            grid = characterization.grid
            assert grid.mnemonics == characterization.mnemonics
            for got, want in zip(
                    (grid.periods, grid.probs, grid.p_any,
                     grid.first_quiet_rows),
                    _eager_grid(characterization)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            for mnemonic, table in characterization.cdfs.items():
                # The order a DTA emitted the cycles in does not matter.
                eager = np.sort(table.critical_rows[::-1].T, axis=1)
                assert table.critical_sorted.tobytes() == eager.tobytes()
                assert table.critical_sorted.tobytes() == \
                    fresh.cdfs[mnemonic].critical_sorted.tobytes()

    def test_grid_is_built_once_and_shared(self, characterization,
                                           monkeypatch):
        fresh = AluCharacterization.from_json(characterization.to_json())
        compiled = []
        compile_grid = CdfGrid.compile.__func__

        def counting(cls, *args, **kwargs):
            compiled.append(args)
            return compile_grid(cls, *args, **kwargs)
        monkeypatch.setattr(CdfGrid, "compile", classmethod(counting))
        assert fresh.grid is fresh.grid
        assert len(compiled) == 1
        assert "critical_sorted" not in vars(fresh.cdfs["l.add"])

    def test_error_probs_sort_on_first_use(self):
        critical = np.array([[3.0, 1.0], [2.0, 5.0], [4.0, 0.5]])
        table = EndpointCdfs.from_critical("l.add", 0.7, critical)
        assert "critical_sorted" not in vars(table)
        assert table.error_probs(2.5).tolist() == [2 / 3, 1 / 3]
        assert table.critical_sorted.tolist() == [[2.0, 3.0, 4.0],
                                                  [0.5, 1.0, 5.0]]
