"""Tests for the characterization flow: coverage, caching, persistence."""

import numpy as np
import pytest

from repro.isa.instructions import ALU_MNEMONICS
from repro.timing.characterize import (
    AluCharacterization,
    CharacterizationConfig,
    clear_cache,
    get_characterization,
)


class TestCoverage:
    def test_all_alu_instructions_characterized(self, characterization):
        assert set(characterization.mnemonics) == set(ALU_MNEMONICS)

    def test_grids_built_for_every_instruction(self, characterization):
        assert set(characterization.grids) == set(characterization.cdfs)

    def test_worst_sta_recorded(self, alu, characterization):
        assert characterization.worst_sta_period_ps == pytest.approx(
            alu.worst_sta_period_ps(characterization.config.vdd))

    def test_grid_covers_all_critical_periods(self, characterization):
        for mnemonic, cdfs in characterization.cdfs.items():
            grid = characterization.grids[mnemonic]
            assert grid.periods[-1] >= cdfs.row_max_sorted[-1]


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


class TestPersistence:
    def test_save_load_roundtrip(self, alu, tmp_path):
        config = CharacterizationConfig(n_cycles_per_instr=64, seed=21)
        original = AluCharacterization.run(alu, config)
        path = tmp_path / "char.npz"
        original.save(path)
        loaded = AluCharacterization.load(path)
        assert loaded.config == config
        assert set(loaded.mnemonics) == set(original.mnemonics)
        for mnemonic in original.mnemonics:
            assert np.allclose(
                loaded.cdfs[mnemonic].critical_rows,
                original.cdfs[mnemonic].critical_rows)
        assert loaded.worst_sta_period_ps == pytest.approx(
            original.worst_sta_period_ps)

    def test_loaded_grids_behave_identically(self, alu, tmp_path):
        config = CharacterizationConfig(n_cycles_per_instr=64, seed=22)
        original = AluCharacterization.run(alu, config)
        path = tmp_path / "char.npz"
        original.save(path)
        loaded = AluCharacterization.load(path)
        period = 1e12 / 800e6
        for mnemonic in original.mnemonics:
            assert np.allclose(
                loaded.cdfs[mnemonic].error_probs(period),
                original.cdfs[mnemonic].error_probs(period))


class TestOlderStoredData:
    """Bodies and files written while the DTA also had a float settle
    pipeline carry a ``timing_dtype`` config field; they must keep
    decoding into bit-identical tables."""

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
            for name in ("periods", "probs", "p_any", "tail_products"):
                assert np.array_equal(
                    getattr(loaded.grids[mnemonic], name),
                    getattr(original.grids[mnemonic], name))

    def test_body_and_npz_with_timing_dtype_reload(self, characterization,
                                                   tmp_path):
        body = characterization.to_json()
        body["config"] = {**body["config"], "timing_dtype": "float64"}
        self._assert_identical(AluCharacterization.from_json(body),
                               characterization)

        path = tmp_path / "char.npz"
        characterization.save(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["timing_dtype"] = np.array("float64")
        np.savez_compressed(path, **arrays)
        self._assert_identical(AluCharacterization.load(path),
                               characterization)
