"""Cross-module integration tests: the full model-C pipeline."""

import numpy as np
import pytest

from repro.bench.suite import BENCHMARK_NAMES, build_kernel
from repro.fi.model_b import endpoint_worst_sta
from repro.fi.model_c import StatisticalInjector
from repro.mc.runner import run_trial
from repro.timing.noise import VoltageNoise


def make_injector(characterization, vdd_model, frequency_hz, sigma, rng,
                  **kwargs):
    return StatisticalInjector(characterization, frequency_hz,
                               VoltageNoise(sigma), vdd_model=vdd_model,
                               rng=rng, **kwargs)


class TestSafeOperation:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_all_benchmarks_clean_below_onset(self, name, characterization,
                                              vdd_model, rng):
        """Far below the STA limit model C must be fully transparent."""
        kernel = build_kernel(name, "quick")
        injector = make_injector(characterization, vdd_model, 500e6,
                                 0.010, rng)
        trial = run_trial(kernel, injector)
        assert trial.finished and trial.correct
        assert trial.fault_count == 0
        assert trial.alu_cycles > 0  # the hook did run


class TestOverscaledOperation:
    def test_deep_overscaling_kills_every_benchmark(self, characterization,
                                                    vdd_model, rng):
        for name in BENCHMARK_NAMES:
            kernel = build_kernel(name, "quick")
            injector = make_injector(characterization, vdd_model, 1000e6,
                                     0.010, rng)
            trial = run_trial(kernel, injector)
            assert not trial.correct, name
            assert trial.fault_count > 0, name

    def test_transition_region_is_graded(self, characterization,
                                         vdd_model, rng):
        """Unlike models B/B+, model C produces intermediate FI rates:
        a run in the transition region injects some but not hundreds of
        faults per kCycle."""
        kernel = build_kernel("mat_mult_8bit", "quick")
        injector = make_injector(characterization, vdd_model, 715e6,
                                 0.010, rng)
        rates = []
        for _ in range(10):
            trial = run_trial(kernel, injector)
            rates.append(trial.fi_rate_per_kcycle)
        assert max(rates) > 0.0
        assert max(rates) < 100.0


class TestDeterminism:
    def test_full_pipeline_reproducible(self, characterization, vdd_model):
        kernel = build_kernel("median", "quick")
        outcomes = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            injector = make_injector(characterization, vdd_model, 760e6,
                                     0.010, rng)
            trial = run_trial(kernel, injector)
            outcomes.append((trial.finished, trial.correct,
                             trial.fault_count, trial.cycles))
        assert outcomes[0] == outcomes[1]


class TestModelRelationships:
    def test_bplus_onset_bounds_model_c_onset(self, alu, characterization):
        """Model B+ uses per-endpoint worst-case STA, so its onset can
        never be above model C's DTA-based onset."""
        sta_worst = float(endpoint_worst_sta(alu, 0.7).max())
        dta_worst = max(float(c.row_max_sorted[-1])
                        for c in characterization.cdfs.values())
        assert dta_worst <= sta_worst + 1e-9

    def test_endpoint_rates_match_cdf_marginals(self, characterization,
                                                vdd_model):
        """Without noise, every endpoint faults at its DTA CDF's rate.

        Checks the whole per-op chain -- period stream, grid row,
        any-endpoint draw, conditional sampler -- against
        ``EndpointCdfs.error_probs``, endpoint by endpoint.
        """
        frequency = 760e6
        cycles = 20000
        injector = make_injector(characterization, vdd_model, frequency,
                                 0.0, np.random.default_rng(5))
        injector.begin_run()
        counts = np.zeros(32)
        for _ in range(cycles):
            mask = injector.fault_mask("l.mul")
            counts += [(mask >> bit) & 1 for bit in range(32)]
        cdfs = characterization.cdfs["l.mul"]
        expected = cdfs.error_probs(1e12 / frequency)
        assert expected.max() > 0.05  # the check has teeth
        # Five binomial standard deviations per endpoint, plus the
        # period grid's quantization: the injector reads the grid row
        # at or just below the period.
        grid = characterization.grid
        on_grid = cdfs.error_probs(
            grid.periods[grid.row_index(1e12 / frequency)])
        tolerance = (5 * np.sqrt(expected * (1 - expected) / cycles)
                     + on_grid - expected)
        assert np.all(np.abs(counts / cycles - expected) <= tolerance)


class TestFaultSemanticsEndToEnd:
    @pytest.mark.parametrize("semantics", ["flip", "stale"])
    def test_both_semantics_run(self, characterization, vdd_model, rng,
                                semantics):
        kernel = build_kernel("median", "quick")
        injector = make_injector(characterization, vdd_model, 800e6,
                                 0.010, rng, semantics=semantics)
        trial = run_trial(kernel, injector)
        assert trial.fault_count > 0
