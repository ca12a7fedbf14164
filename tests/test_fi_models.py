"""Tests for the four fault-injection models A, B, B+ and C."""

import numpy as np
import pytest

from repro.fi.model_a import FixedProbabilityInjector
from repro.fi.model_b import StaInjector, endpoint_worst_sta
from repro.fi.model_bplus import StaNoiseInjector
from repro.fi.model_c import StatisticalInjector
from repro.fi.streams import EffectivePeriodStream
from repro.timing.noise import VoltageNoise


class TestModelA:
    def test_rate_matches_probability(self, rng):
        p_bit = 0.002
        injector = FixedProbabilityInjector(p_bit, rng)
        injector.begin_run()
        cycles = 30000
        for _ in range(cycles):
            injector.on_alu("l.add", 0)
        expected = p_bit * 32 * cycles
        assert injector.fault_count == pytest.approx(expected, rel=0.15)

    def test_instruction_blind(self, rng):
        injector = FixedProbabilityInjector(0.01, rng)
        injector.begin_run()
        for mnemonic in ("l.add", "l.mul", "l.sll"):
            injector.on_alu(mnemonic, 0)
        assert injector.alu_cycles == 3

    def test_zero_probability_never_faults(self, rng):
        injector = FixedProbabilityInjector(0.0, rng)
        injector.begin_run()
        for _ in range(1000):
            assert injector.on_alu("l.add", 7) == 7

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            FixedProbabilityInjector(1.5, rng)


class TestModelB:
    def test_no_faults_below_sta_limit(self, alu):
        f_safe = alu.sta_limit_hz(0.7) * 0.999
        injector = StaInjector(alu, f_safe)
        assert injector.violation_mask == 0

    def test_deterministic_mask_above_limit(self, alu):
        f_over = alu.sta_limit_hz(0.7) * 1.001
        injector = StaInjector(alu, f_over)
        assert injector.violation_mask != 0
        injector.begin_run()
        masks = {injector.fault_mask("l.add") for _ in range(10)}
        assert masks == {injector.violation_mask}

    def test_mask_grows_with_frequency(self, alu):
        limit = alu.sta_limit_hz(0.7)
        low = StaInjector(alu, limit * 1.001).violation_mask
        high = StaInjector(alu, limit * 1.2).violation_mask
        assert low & high == low
        assert high.bit_count() > low.bit_count()

    def test_highest_bit_fails_first(self, alu):
        limit = alu.sta_limit_hz(0.7)
        mask = StaInjector(alu, limit * 1.001).violation_mask
        assert mask & (1 << 31)

    def test_endpoint_worst_sta_covers_all_units(self, alu):
        worst = endpoint_worst_sta(alu, 0.7)
        per_unit = alu.endpoint_sta(0.7)
        setup = alu.library.setup(0.7)
        for arrivals in per_unit.values():
            assert np.all(worst >= arrivals + setup - 1e-9)

    def test_validation(self, alu):
        with pytest.raises(ValueError):
            StaInjector(alu, -1.0)


class TestModelBPlus:
    def test_zero_noise_reduces_to_model_b(self, alu, vdd_model, rng):
        frequency = alu.sta_limit_hz(0.7) * 1.001
        b = StaInjector(alu, frequency)
        bplus = StaNoiseInjector(alu, frequency, VoltageNoise(0.0),
                                 vdd_model=vdd_model, rng=rng)
        bplus.begin_run()
        for _ in range(20):
            assert bplus.fault_mask("l.add") == b.violation_mask

    def test_onset_below_sta_limit_with_noise(self, alu, vdd_model, rng):
        """With noise, faults appear below the STA limit -- but only in
        cycles where the droop is deep enough."""
        frequency = alu.sta_limit_hz(0.7) * 0.97
        injector = StaNoiseInjector(alu, frequency, VoltageNoise(0.025),
                                    vdd_model=vdd_model, rng=rng)
        injector.begin_run()
        faults = sum(injector.fault_mask("l.add") != 0
                     for _ in range(20000))
        assert 0 < faults < 20000

    def test_safe_far_below_onset(self, alu, vdd_model, rng):
        frequency = alu.sta_limit_hz(0.7) * 0.75
        injector = StaNoiseInjector(alu, frequency, VoltageNoise(0.010),
                                    vdd_model=vdd_model, rng=rng)
        injector.begin_run()
        assert all(injector.fault_mask("l.add") == 0
                   for _ in range(20000))

    def test_instruction_blind(self, alu, vdd_model, rng):
        """B+ applies the same worst-case mask regardless of the
        instruction (key difference from model C)."""
        frequency = alu.sta_limit_hz(0.7) * 1.05
        injector = StaNoiseInjector(alu, frequency, VoltageNoise(0.0),
                                    vdd_model=vdd_model, rng=rng)
        injector.begin_run()
        assert (injector.fault_mask("l.and")
                == injector.fault_mask("l.mul") != 0)


class TestModelC:
    def _injector(self, characterization, vdd_model, frequency, rng,
                  sigma=0.010, **kwargs):
        return StatisticalInjector(
            characterization, frequency, VoltageNoise(sigma),
            vdd_model=vdd_model, rng=rng, **kwargs)

    def test_safe_below_onset(self, characterization, vdd_model, rng):
        injector = self._injector(characterization, vdd_model, 600e6, rng)
        injector.begin_run()
        assert all(injector.fault_mask("l.mul") == 0 for _ in range(5000))

    def test_rate_increases_with_frequency(self, characterization,
                                           vdd_model, rng):
        rates = []
        for frequency in (720e6, 800e6, 900e6):
            injector = self._injector(characterization, vdd_model,
                                      frequency, rng)
            injector.begin_run()
            for _ in range(4000):
                injector.on_alu("l.mul", 0)
            rates.append(injector.fault_count)
        assert rates[0] < rates[1] < rates[2]

    def test_instruction_aware(self, characterization, vdd_model, rng):
        """At a frequency between the mul and logic PoFFs, multiplies
        fault while logic ops stay clean -- the paper's key feature."""
        injector = self._injector(characterization, vdd_model, 800e6, rng,
                                  sigma=0.0)
        injector.begin_run()
        mul_faults = sum(injector.fault_mask("l.mul") != 0
                         for _ in range(3000))
        and_faults = sum(injector.fault_mask("l.and") != 0
                         for _ in range(3000))
        assert mul_faults > 0
        assert and_faults == 0

    def test_rate_matches_cdf_probability(self, characterization,
                                          vdd_model, rng):
        """Without noise, the per-cycle any-fault rate must equal the
        empirical any-endpoint violation probability from DTA."""
        frequency = 780e6
        injector = self._injector(characterization, vdd_model, frequency,
                                  rng, sigma=0.0)
        injector.begin_run()
        trials = 30000
        faulty = sum(injector.fault_mask("l.mul") != 0
                     for _ in range(trials))
        expected = 1.0 - np.prod(
            1.0 - characterization.cdfs["l.mul"].error_probs(
                1e12 / frequency))
        assert faulty / trials == pytest.approx(expected, rel=0.12)

    def test_voltage_overscaling_shifts_onset(self, characterization,
                                              vdd_model, rng):
        """Running below the characterization voltage at fixed frequency
        must create faults (Fig. 7's mechanism)."""
        frequency = 690e6  # safe at 0.7 V
        at_nominal = self._injector(characterization, vdd_model,
                                    frequency, rng, sigma=0.0)
        at_nominal.begin_run()
        assert all(at_nominal.fault_mask("l.mul") == 0
                   for _ in range(2000))
        undervolted = StatisticalInjector(
            characterization, frequency, VoltageNoise(0.0),
            vdd_operating=0.66, vdd_model=vdd_model, rng=rng)
        undervolted.begin_run()
        faults = sum(undervolted.fault_mask("l.mul") != 0
                     for _ in range(2000))
        assert faults > 0

    def test_requires_vdd_model(self, characterization, rng):
        with pytest.raises(ValueError, match="VddDelayModel"):
            StatisticalInjector(characterization, 700e6,
                                VoltageNoise(0.01), rng=rng)

    def test_for_alu_turnkey(self, alu, rng):
        injector = StatisticalInjector.for_alu(
            alu, 700e6, VoltageNoise(0.010), rng=rng)
        injector.begin_run()
        injector.on_alu("l.add", 1)
        assert injector.alu_cycles == 1


class TestEffectivePeriodStream:
    def test_zero_noise_constant(self, vdd_model, rng):
        stream = EffectivePeriodStream(1000.0, 0.7, 0.7, vdd_model,
                                       VoltageNoise(0.0), rng)
        assert stream.next() == pytest.approx(1000.0)

    def test_droops_shorten_effective_period(self, vdd_model, rng):
        stream = EffectivePeriodStream(1000.0, 0.7, 0.7, vdd_model,
                                       VoltageNoise(0.010), rng,
                                       block=4096)
        values = np.array([stream.next() for _ in range(8000)])
        assert values.min() < 1000.0  # droops stretch delays
        assert values.max() > 1000.0  # overshoots relax them
        assert values.min() > 900.0   # bounded by the 2-sigma clip

    def test_static_undervolt_shrinks_period(self, vdd_model, rng):
        stream = EffectivePeriodStream(1000.0, 0.68, 0.7, vdd_model,
                                       VoltageNoise(0.0), rng)
        assert stream.next() < 1000.0

    def test_validation(self, vdd_model, rng):
        with pytest.raises(ValueError):
            EffectivePeriodStream(0.0, 0.7, 0.7, vdd_model,
                                  VoltageNoise(0.0), rng)
