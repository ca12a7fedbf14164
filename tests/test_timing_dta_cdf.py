"""Tests for dynamic timing analysis and the CDF machinery."""

import numpy as np
import pytest

from repro.timing.cdf import CdfGrid, EndpointCdfs
from repro.timing.dta import run_dta, sample_operands


class TestOperandSampling:
    def test_register_forms_full_range(self, rng):
        a, b = sample_operands("l.add", 2000, rng)
        assert a.max() > 1 << 31 and b.max() > 1 << 31

    def test_signed_immediate_range(self, rng):
        _, b = sample_operands("l.addi", 2000, rng)
        as_signed = b.astype(np.int64)
        as_signed[as_signed >= 1 << 31] -= 1 << 32
        assert as_signed.min() >= -(1 << 15)
        assert as_signed.max() < (1 << 15)

    def test_unsigned_immediate_range(self, rng):
        _, b = sample_operands("l.ori", 2000, rng)
        assert b.max() < (1 << 16)

    def test_shift_immediate_range(self, rng):
        _, b = sample_operands("l.slli", 2000, rng)
        assert b.max() < 32


class TestRunDta:
    def test_shapes_and_bounds(self, alu):
        result = run_dta(alu, "l.add", 128, vdd=0.7, seed=3)
        assert result.critical_ps.shape == (128, 32)
        assert result.values.shape == (128,)
        assert result.unit == "adder"
        worst = alu.worst_sta_period_ps(0.7)
        assert result.critical_ps.max() <= worst + 1e-9

    def test_values_are_correct_sums(self, alu, rng):
        n = 64
        a = rng.integers(0, 1 << 32, n + 1, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, n + 1, dtype=np.uint64)
        result = run_dta(alu, "l.add", n, operands=(a, b))
        expected = (a[1:] + b[1:]) & np.uint64(0xFFFFFFFF)
        assert np.array_equal(result.values, expected)

    def test_error_probabilities_monotone_in_period(self, alu):
        result = run_dta(alu, "l.mul", 128, seed=5)
        p_short = result.error_probabilities(1000.0)
        p_long = result.error_probabilities(1300.0)
        assert np.all(p_short >= p_long)

    def test_explicit_operands_length_checked(self, alu):
        with pytest.raises(ValueError, match="entries"):
            run_dta(alu, "l.add", 100,
                    operands=(np.zeros(5, dtype=np.uint64),
                              np.zeros(5, dtype=np.uint64)))

    def test_n_cycles_positive(self, alu):
        with pytest.raises(ValueError):
            run_dta(alu, "l.add", 0)


def _synthetic_cdfs() -> EndpointCdfs:
    """Three cycles, two endpoints, hand-computable statistics."""
    critical = np.array([
        [100.0, 300.0],
        [200.0, 250.0],
        [150.0, 400.0],
    ])
    return EndpointCdfs.from_critical("l.test", 0.7, critical)


class TestEndpointCdfs:
    def test_exact_probabilities(self):
        cdfs = _synthetic_cdfs()
        # Period 175: endpoint0 exceeds in cycles {200}, endpoint1 in all.
        probs = cdfs.error_probs(175.0)
        assert probs[0] == pytest.approx(1 / 3)
        assert probs[1] == pytest.approx(1.0)

    def test_any_error_prob(self):
        cdfs = _synthetic_cdfs()
        assert cdfs.any_error_prob(260.0) == pytest.approx(2 / 3)
        assert cdfs.any_error_prob(500.0) == 0.0
        assert cdfs.any_error_prob(50.0) == 1.0

    def test_poff_frequency(self):
        cdfs = _synthetic_cdfs()
        assert cdfs.poff_frequency_hz() == pytest.approx(1e12 / 400.0)

    def test_frequency_view_consistent(self):
        cdfs = _synthetic_cdfs()
        assert np.array_equal(
            cdfs.error_probs_at_frequency(1e12 / 175.0),
            cdfs.error_probs(175.0))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            EndpointCdfs.from_critical("x", 0.7, np.zeros(5))


class TestCdfGrid:
    def test_grid_probabilities_match_exact(self):
        cdfs = _synthetic_cdfs()
        grid = CdfGrid.compile([cdfs], 50.0, 450.0, points=401)
        index = grid.row_index(175.0)
        assert grid.probs[0, index, 0] == pytest.approx(1 / 3)
        assert grid.probs[0, index, 1] == pytest.approx(1.0)

    def test_row_index_semantics(self):
        cdfs = _synthetic_cdfs()
        grid = CdfGrid.compile([cdfs], 100.0, 500.0, points=5)
        assert grid.row_index(50.0) == 0       # clamps pessimistically
        assert grid.row_index(10000.0) == -1   # beyond grid: no faults
        # In-range values pick the row at or just below the period.
        row = grid.row_index(305.0)
        assert grid.periods[row] <= 305.0

    def test_p_any_monotone_decreasing(self):
        cdfs = _synthetic_cdfs()
        grid = CdfGrid.compile([cdfs], 50.0, 450.0, points=101)
        assert np.all(np.diff(grid.p_any[0]) <= 1e-12)

    def test_bad_range(self):
        cdfs = _synthetic_cdfs()
        with pytest.raises(ValueError):
            CdfGrid.compile([cdfs], 200.0, 100.0)

    def test_one_table_per_instruction_on_one_period_grid(self):
        cdfs = _synthetic_cdfs()
        doubled = EndpointCdfs.from_critical(
            "l.slow", 0.7, 2.0 * cdfs.critical_rows)
        grid = CdfGrid.compile([cdfs, doubled], 50.0, 900.0, points=171)
        assert grid.mnemonics == ("l.test", "l.slow")
        for mid, table in enumerate((cdfs, doubled)):
            alone = CdfGrid.compile([table], 50.0, 900.0, points=171)
            assert np.array_equal(grid.probs[mid], alone.probs[0])
            assert np.array_equal(grid.p_any[mid], alone.p_any[0])
            # The first quiet row is the first grid period at or past
            # the table's worst cycle.
            quiet = grid.first_quiet_rows[mid]
            assert grid.periods[quiet] >= table.row_max_sorted[-1] \
                > grid.periods[quiet - 1]
            assert np.array_equal(
                grid.sampler(mid, quiet - 1).p_bits,
                grid.probs[mid, quiet - 1])
        assert grid.sampler(1, 10) is grid.sampler(1, 10)
        assert grid.sampler(0, 10) is not grid.sampler(1, 10)


class TestRealCharacterizationProperties:
    def test_mul_fails_before_add(self, characterization):
        assert (characterization.poff_frequency_hz("l.mul")
                < characterization.poff_frequency_hz("l.add"))

    def test_logic_is_safest(self, characterization):
        poffs = {m: characterization.poff_frequency_hz(m)
                 for m in characterization.mnemonics}
        assert min(poffs, key=poffs.get) in ("l.mul", "l.muli")
        assert poffs["l.and"] > poffs["l.add"]

    def test_cdf_monotone_in_frequency(self, characterization):
        cdfs = characterization.cdfs["l.mul"]
        frequencies = np.linspace(600e6, 1500e6, 40)
        previous = np.zeros(32)
        for f in frequencies:
            probs = cdfs.error_probs_at_frequency(f)
            assert np.all(probs >= previous - 1e-12)
            previous = probs

    def test_high_bits_fail_at_lower_frequencies(self, characterization):
        cdfs = characterization.cdfs["l.mul"]
        probs = cdfs.error_probs(1e12 / 900e6)
        # Bit 31 must be at least as error-prone as bit 8 at 900 MHz.
        assert probs[31] >= probs[8]
        assert probs[31] > 0.0
