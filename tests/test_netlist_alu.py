"""Tests for the assembled ALU: semantics, STA views, DTA bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.netlist.alu import AluConfig, AluNetlist, N_ENDPOINTS
from repro.netlist.calibrate import calibrate_alu, calibrated_alu

MASK = (1 << 32) - 1
u32 = st.integers(min_value=0, max_value=MASK)


def _signed(x):
    return x - (1 << 32) if x & 0x80000000 else x


def _expected(mnemonic: str, a: int, b: int) -> int:
    shift = b & 31
    table = {
        "l.add": (a + b) & MASK,
        "l.addi": (a + b) & MASK,
        "l.sub": (a - b) & MASK,
        "l.mul": (a * b) & MASK,
        "l.muli": (a * b) & MASK,
        "l.and": a & b, "l.andi": a & b,
        "l.or": a | b, "l.ori": a | b,
        "l.xor": a ^ b, "l.xori": a ^ b,
        "l.sll": (a << shift) & MASK, "l.slli": (a << shift) & MASK,
        "l.srl": a >> shift, "l.srli": a >> shift,
        "l.sra": (_signed(a) >> shift) & MASK,
        "l.srai": (_signed(a) >> shift) & MASK,
    }
    return table[mnemonic]


class TestSemantics:
    @given(a=u32, b=u32)
    @settings(max_examples=10)
    def test_all_mnemonics_match_reference(self, alu, a, b):
        for mnemonic in alu.mnemonics:
            result = int(alu.compute(mnemonic, [a], [b])[0])
            assert result == _expected(mnemonic, a, b), mnemonic

    def test_unit_of_mapping(self, alu):
        assert alu.unit_of("l.add") == "adder"
        assert alu.unit_of("l.muli") == "multiplier"
        assert alu.unit_of("l.srai") == "shifter"
        assert alu.unit_of("l.xori") == "logic"

    def test_unit_of_rejects_non_alu(self, alu):
        with pytest.raises(KeyError, match="l.lwz"):
            alu.unit_of("l.lwz")

    def test_total_gates(self, alu):
        assert alu.total_gates() > 3000


class TestStaViews:
    def test_calibrated_sta_limit(self, alu):
        assert alu.sta_limit_hz(0.7) / 1e6 == pytest.approx(707.1, abs=0.5)

    def test_higher_vdd_is_faster(self, alu):
        assert alu.sta_limit_hz(0.8) > alu.sta_limit_hz(0.7)
        assert alu.sta_limit_hz(0.6) < alu.sta_limit_hz(0.7)

    def test_endpoint_sta_shape_and_order(self, alu):
        per_unit = alu.endpoint_sta(0.7)
        assert set(per_unit) == set(alu.UNIT_NAMES)
        for arrivals in per_unit.values():
            assert arrivals.shape == (N_ENDPOINTS,)
            assert np.all(arrivals > 0)
        # The multiplier owns the overall critical path by calibration.
        assert per_unit["multiplier"].max() == max(
            a.max() for a in per_unit.values())

    def test_multiplier_profile_grows_with_significance(self, alu):
        arrivals = alu.endpoint_sta(0.7)["multiplier"]
        # Linear-ish profile: bit 31 much later than bit 3.
        assert arrivals[31] > 2 * arrivals[3]

    def test_voltage_scales_all_arrivals_uniformly(self, alu):
        low = alu.endpoint_sta(0.7)["adder"]
        high = alu.endpoint_sta(0.8)["adder"]
        # One global scale factor (alpha-power library).
        mux7 = alu.mux_delay_ps(0.7)
        mux8 = alu.mux_delay_ps(0.8)
        ratio = (high - mux8) / (low - mux7)
        assert np.allclose(ratio, ratio[0])
        assert ratio[0] < 1.0


class TestStaMemo:
    """One envelope pass per unit per (vdd, unit scales)."""

    @pytest.fixture()
    def fresh(self):
        return calibrated_alu()

    def test_second_lookup_runs_no_envelope_pass(self, fresh, monkeypatch):
        first = fresh.endpoint_sta(0.7)

        def boom(*args, **kwargs):
            raise AssertionError("envelope recomputed on a memo hit")
        monkeypatch.setattr("repro.netlist.alu.compute_envelope", boom)
        second = fresh.endpoint_sta(0.7)
        assert fresh.worst_sta_period_ps(0.7) > 0
        for name, bits in first.items():
            assert second[name] is bits

    def test_recalibration_is_never_served_stale(self, fresh):
        assert fresh.worst_sta_period_ps(0.7) == pytest.approx(1414.4)
        calibrate_alu(fresh, {"multiplier": 1500.0})
        assert fresh.worst_sta_period_ps(0.7) == pytest.approx(1500.0)

    def test_tables_are_read_only(self, fresh):
        table = fresh.endpoint_sta(0.7)
        for bits in table.values():
            assert not bits.flags.writeable
        with pytest.raises(ValueError):
            table["adder"][0] = 0.0
        table.pop("adder")  # the returned dict is the caller's own
        assert "adder" in fresh.endpoint_sta(0.7)

    def test_one_span_per_memo_miss(self, fresh, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        try:
            fresh.endpoint_sta(0.7)
            fresh.worst_sta_period_ps(0.7)
            fresh.sta_limit_hz(0.8)
        finally:
            obs.shutdown()
            obs.reset()
        spans = [r for r in obs.spans(obs.read_trace(trace))
                 if r["name"] == "timing.sta"]
        assert [r["a"] for r in spans] == [{"vdd": 0.7}, {"vdd": 0.8}]


class TestPropagateBounds:
    @pytest.mark.parametrize("mnemonic", ["l.add", "l.mul", "l.sll",
                                          "l.xor"])
    def test_dta_never_exceeds_sta(self, alu, rng, mnemonic):
        n = 64
        a = rng.integers(0, 1 << 32, n + 1, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, n + 1, dtype=np.uint64)
        values, arrivals = alu.propagate(
            mnemonic, (a[:-1], b[:-1]), (a[1:], b[1:]), 0.7)
        sta = alu.endpoint_sta(0.7)[alu.unit_of(mnemonic)]
        assert np.all(arrivals <= sta[:, None] + 1e-9)
        expected = np.array([_expected(mnemonic, int(x), int(y))
                             for x, y in zip(a[1:], b[1:])],
                            dtype=np.uint64)
        assert np.array_equal(values, expected)

    def test_identical_operands_produce_no_events(self, alu, rng):
        a = rng.integers(0, 1 << 32, 8, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 8, dtype=np.uint64)
        _, arrivals = alu.propagate("l.add", (a, b), (a, b), 0.7)
        assert np.all(arrivals == 0.0)

    def test_glitch_model_is_more_pessimistic(self, alu, rng):
        n = 128
        a = rng.integers(0, 1 << 32, n + 1, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, n + 1, dtype=np.uint64)
        ops = ((a[:-1], b[:-1]), (a[1:], b[1:]))
        _, sensitized = alu.propagate("l.mul", *ops, 0.7,
                                      glitch_model="sensitized")
        _, value_change = alu.propagate("l.mul", *ops, 0.7,
                                        glitch_model="value-change")
        assert sensitized.max() >= value_change.max()
        assert sensitized.mean() > value_change.mean()


class TestConfig:
    def test_bad_adder_kind(self):
        with pytest.raises(ValueError, match="adder"):
            AluConfig(adder_kind="magic")

    def test_alternative_adder_builds(self):
        alu = AluNetlist(AluConfig(adder_kind="kogge-stone"))
        assert int(alu.compute("l.add", [5], [7])[0]) == 12
