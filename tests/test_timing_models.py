"""Tests for STA, the voltage-delay fit, the noise model, the library."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.circuit import Circuit
from repro.netlist.library import CHARACTERIZED_VDDS, CellLibrary, VDD_REF
from repro.timing.noise import VoltageNoise
from repro.timing.sta import compute_envelope
from repro.timing.voltage import VddDelayModel


class TestLibrary:
    def test_voltage_factor_reference_is_unity(self):
        library = CellLibrary()
        assert library.voltage_factor(VDD_REF) == pytest.approx(1.0)

    def test_voltage_factor_monotone(self):
        library = CellLibrary()
        factors = [library.voltage_factor(v) for v in CHARACTERIZED_VDDS]
        assert factors == sorted(factors, reverse=True)

    def test_below_threshold_rejected(self):
        library = CellLibrary()
        with pytest.raises(ValueError, match="threshold"):
            library.voltage_factor(0.3)

    def test_unknown_cell_kind(self):
        library = CellLibrary()
        with pytest.raises(KeyError, match="NAND9"):
            library.delay_ps("NAND9")

    def test_scale_is_linear(self):
        library = CellLibrary()
        assert library.delay_ps("INV", scale=2.0) == pytest.approx(
            2.0 * library.delay_ps("INV"))

    @pytest.mark.parametrize("vdd", CHARACTERIZED_VDDS)
    def test_gate_delays_match_per_gate_delay_ps_bitwise(self, alu, vdd):
        library = alu.library
        for name, unit in alu.units.items():
            for scale in (1.0, alu.unit_scales[name]):
                expected = np.array([library.delay_ps(kind, vdd, scale)
                                     for kind in unit.gate_kinds])
                got = unit.gate_delays(library, vdd, scale)
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes(), (name, scale)

    def test_sequential_overheads_scale_with_voltage(self):
        library = CellLibrary()
        assert library.clk_to_q(0.6) > library.clk_to_q(0.7)
        assert library.setup(0.8) < library.setup(0.7)


def _per_gate_arrivals(circuit: Circuit, delays: np.ndarray,
                       launch: float) -> np.ndarray:
    """Reference STA: one topological per-gate max-plus loop.

    Constant nets arrive at 0.0, so a net fed by constants alone gets
    a finite arrival here where the envelope gives ``-inf``.
    """
    arrival = np.full(circuit.n_nets, launch)
    arrival[:2] = 0.0
    for index, (ins, out) in enumerate(
            zip(circuit.gate_inputs, circuit.gate_outputs)):
        arrival[out] = max(arrival[i] for i in ins) + delays[index]
    return arrival


def _bus_max(circuit: Circuit, envelope, bus: str) -> np.ndarray:
    return envelope.max_rows[circuit.plan.rows[circuit.output_nets(bus)]]


class TestSta:
    def _chain(self, n: int) -> Circuit:
        circuit = Circuit("chain")
        a = circuit.input_bus("a", 1)[0]
        net = a
        for _ in range(n):
            net = circuit.gate("INV", net)
        circuit.output_bus("y", [net])
        return circuit

    def test_chain_arrival(self):
        library = CellLibrary()
        circuit = self._chain(5)
        envelope = compute_envelope(circuit.plan,
                                    circuit.gate_delays(library, 0.7),
                                    library.clk_to_q(0.7))
        expected = library.clk_to_q(0.7) + 5 * library.delay_ps("INV", 0.7)
        assert _bus_max(circuit, envelope, "y")[0] == pytest.approx(
            expected)

    def test_without_clk_to_q(self):
        library = CellLibrary()
        circuit = self._chain(3)
        envelope = compute_envelope(circuit.plan,
                                    circuit.gate_delays(library, 0.7))
        assert _bus_max(circuit, envelope, "y")[0] == pytest.approx(
            3 * library.delay_ps("INV", 0.7))

    def test_worst_takes_max_over_outputs(self):
        library = CellLibrary()
        circuit = Circuit("two")
        a = circuit.input_bus("a", 1)[0]
        short = circuit.gate("INV", a)
        long = circuit.gate("INV", circuit.gate("INV", short))
        circuit.output_bus("s", [short])
        circuit.output_bus("l", [long])
        envelope = compute_envelope(circuit.plan,
                                    circuit.gate_delays(library),
                                    library.clk_to_q())
        assert envelope.worst_arrival == _bus_max(circuit, envelope, "l")[0]
        assert envelope.worst_arrival > _bus_max(circuit, envelope, "s")[0]

    def test_constant_fed_net_never_arrives(self):
        """The one place the envelope departs from the per-gate loop.

        The loop times a gate fed by constants alone from the
        constants' 0.0 arrival; the envelope knows it can never switch
        and gives it ``-inf``.  Gates with a live input agree.
        """
        library = CellLibrary()
        circuit = Circuit("consty")
        a = circuit.input_bus("a", 1)[0]
        dead = circuit.gate("AND2", circuit.const(0), circuit.const(1))
        live = circuit.gate("OR2", a, dead)
        circuit.output_bus("y", [dead, live])
        delays = circuit.gate_delays(library)
        launch = library.clk_to_q()
        loop = _per_gate_arrivals(circuit, delays, launch)
        envelope = compute_envelope(circuit.plan, delays, launch)
        bits = _bus_max(circuit, envelope, "y")
        assert loop[dead] == delays[0]
        assert bits[0] == -np.inf
        assert bits[1] == loop[live] == launch + delays[1]

    @pytest.mark.parametrize("vdd", [0.6, 0.7, 1.2])
    def test_calibrated_units_match_per_gate_loop_bitwise(self, alu, vdd):
        for name, unit in alu.units.items():
            delays = unit.gate_delays(alu.library, vdd,
                                      alu.unit_scales[name])
            for launch in (0.0, alu.library.clk_to_q(vdd)):
                loop = _per_gate_arrivals(unit, delays, launch)
                envelope = compute_envelope(unit.plan, delays, launch)
                for bus in unit.output_names:
                    expected = loop[unit.output_nets(bus)]
                    got = _bus_max(unit, envelope, bus)
                    assert got.tobytes() == expected.tobytes(), (name, bus)

    def test_calibrated_result_bits_are_finite(self, alu):
        """Every ALU endpoint can switch: model B's masks rest on it."""
        for vdd in CHARACTERIZED_VDDS:
            for name, bits in alu.endpoint_sta(vdd).items():
                assert np.all(np.isfinite(bits)), (name, vdd)


class TestVddDelayModel:
    def test_fit_recovers_polynomial(self):
        vdds = np.array([0.6, 0.7, 0.8, 0.9, 1.0])
        delays = 3000 - 2000 * vdds + 500 * vdds ** 2
        model = VddDelayModel.fit(vdds, delays, degree=2)
        assert model.delay_ps(0.75) == pytest.approx(
            3000 - 2000 * 0.75 + 500 * 0.75 ** 2, rel=1e-9)

    def test_fit_needs_enough_points(self):
        with pytest.raises(ValueError, match="at least"):
            VddDelayModel.fit(np.array([0.6, 0.7]), np.array([1.0, 2.0]),
                              degree=3)

    def test_from_alu_sta_monotone(self, alu, vdd_model):
        delays = [vdd_model.delay_ps(v) for v in CHARACTERIZED_VDDS]
        assert delays == sorted(delays, reverse=True)

    def test_fit_matches_sta_at_corners(self, alu, vdd_model):
        for vdd in CHARACTERIZED_VDDS:
            assert vdd_model.delay_ps(vdd) == pytest.approx(
                alu.worst_sta_period_ps(vdd), rel=0.02)

    def test_droop_scale_factor_above_one(self, vdd_model):
        factor = vdd_model.scale_factor(0.68, 0.7)
        assert factor > 1.0

    def test_overdrive_scale_factor_below_one(self, vdd_model):
        assert vdd_model.scale_factor(0.72, 0.7) < 1.0

    def test_clamped_outside_fit_range(self, vdd_model):
        assert vdd_model.delay_ps(0.1) == vdd_model.delay_ps(0.6)
        assert vdd_model.delay_ps(2.0) == vdd_model.delay_ps(1.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_horner_equals_polyval_bit_for_bit(self, vdd_model,
                                                        dtype):
        """A noise refill's 65,536 values, clamped ones included."""
        rng = np.random.default_rng(7)
        vdds = (0.7 + rng.normal(0.0, 0.15, 65536)).astype(dtype)
        vdds[:4] = (0.0, vdd_model.vdd_min, vdd_model.vdd_max, 5.0)
        assert (vdds < vdd_model.vdd_min).any()
        assert (vdds > vdd_model.vdd_max).any()
        reference = np.polyval(np.asarray(vdd_model.coefficients),
                               np.clip(vdds, vdd_model.vdd_min,
                                       vdd_model.vdd_max))
        delays = vdd_model.delay_ps(vdds)
        assert delays.dtype == reference.dtype
        assert np.array_equal(delays.view(np.uint64),
                              reference.view(np.uint64))
        for vdd in vdds[:64]:
            scalar = vdd_model.delay_ps(vdd)
            assert type(scalar) is np.float64
            assert scalar == np.polyval(np.asarray(vdd_model.coefficients),
                                        np.clip(vdd, vdd_model.vdd_min,
                                                vdd_model.vdd_max))

    def test_sensitivity_matches_paper_band(self, vdd_model):
        """A 20 mV droop costs roughly 5-9 % delay (paper: B+ onset at
        661 MHz from a 707 MHz limit, i.e. ~7 %)."""
        factor = float(vdd_model.scale_factor(0.68, 0.7))
        assert 1.04 < factor < 1.10

    def test_against_scipy_interpolation(self, alu, vdd_model):
        scipy = pytest.importorskip("scipy.interpolate")
        vdds = np.array(CHARACTERIZED_VDDS)
        delays = np.array([alu.worst_sta_period_ps(v) for v in vdds])
        spline = scipy.CubicSpline(vdds, delays)
        for v in (0.65, 0.72, 0.85):
            assert vdd_model.delay_ps(v) == pytest.approx(
                float(spline(v)), rel=0.025)


class TestVoltageNoise:
    def test_zero_sigma_is_silent(self, rng):
        noise = VoltageNoise(0.0)
        assert np.all(noise.sample(100, rng) == 0.0)

    def test_clipping_at_two_sigma(self, rng):
        noise = VoltageNoise(0.010)
        samples = noise.sample(20000, rng)
        assert samples.max() <= 0.020 + 1e-12
        assert samples.min() >= -0.020 - 1e-12
        # The clip boundary actually accumulates probability mass.
        assert np.mean(np.isclose(np.abs(samples), 0.020)) > 0.02

    def test_distribution_moments(self, rng):
        noise = VoltageNoise(0.010)
        samples = noise.sample(50000, rng)
        assert abs(samples.mean()) < 5e-4
        assert 0.008 < samples.std() < 0.011

    def test_validation(self):
        with pytest.raises(ValueError):
            VoltageNoise(-0.01)
        with pytest.raises(ValueError):
            VoltageNoise(0.01, clip_sigmas=0)

    def test_max_droop(self):
        assert VoltageNoise(0.025).max_droop_v == pytest.approx(0.05)


class TestStatisticalClipBehavior:
    @given(sigma=st.floats(min_value=1e-4, max_value=0.05))
    @settings(max_examples=10)
    def test_bounds_hold_for_any_sigma(self, sigma):
        rng = np.random.default_rng(0)
        noise = VoltageNoise(sigma)
        samples = noise.sample(1000, rng)
        assert np.all(np.abs(samples) <= noise.max_droop_v + 1e-15)
