"""Tests for the experiment drivers (paper tables and figures).

Each driver runs at a tiny custom scale so the full suite stays fast;
assertions target the paper's *qualitative* claims, which must hold at
any scale.
"""

import numpy as np
import pytest

from repro import experiments
from repro.experiments import fig1, fig2, fig4, fig5, fig6, fig7
from repro.experiments import table1, table2
from repro.experiments.context import ExperimentContext, NOMINAL_VDD
from repro.experiments.scale import PAPER, Scale, get_scale

TINY = Scale(name="tiny", trials=6, freq_points=6, kernel_scale="quick",
             char_cycles=192, fig4_samples=384, voltage_points=5)


@pytest.fixture(scope="module")
def ctx() -> ExperimentContext:
    return ExperimentContext.create(TINY, seed=2016)


class TestScalePresets:
    def test_lookup(self):
        assert get_scale("paper") is PAPER
        assert get_scale(TINY) is TINY
        with pytest.raises(KeyError):
            get_scale("gigantic")


class TestContext:
    def test_sta_limit_is_calibrated(self, ctx):
        assert ctx.sta_limit_hz(0.7) / 1e6 == pytest.approx(707.1, abs=0.5)

    def test_characterization_cached_per_vdd(self, ctx):
        assert ctx.characterization(0.7) is ctx.characterization(0.7)
        assert ctx.characterization(0.7) is not ctx.characterization(0.8)

    def test_bplus_onset_ordering(self, ctx):
        sta = ctx.sta_limit_hz(0.7)
        onset_0 = ctx.bplus_onset_hz(0.7, 0.0)
        onset_10 = ctx.bplus_onset_hz(0.7, 0.010)
        onset_25 = ctx.bplus_onset_hz(0.7, 0.025)
        assert onset_0 == pytest.approx(sta, rel=1e-6)
        assert onset_25 < onset_10 < onset_0


class TestTable1:
    def test_paper_scale_rows(self):
        rows = experiments.run("table1", "paper")
        by_name = {row.name: row for row in rows}
        assert by_name["median"].size == "129 values"
        assert by_name["mat_mult_16bit"].size == "16x16 matr."
        assert by_name["dijkstra"].size == "10 nodes"
        # Matmul is the compute-heavy kernel; median has none.
        assert by_name["mat_mult_8bit"].compute_rating == "++"
        assert by_name["median"].compute_rating == "-"
        assert by_name["median"].compute_fraction == 0.0
        # Control-oriented kernels rank above matmul.
        assert (by_name["dijkstra"].control_fraction
                > by_name["mat_mult_8bit"].control_fraction)

    def test_render(self):
        rows = experiments.run("table1", "quick")
        text = table1.render(rows)
        assert "median" in text and "output error" in text


class TestTable2:
    def test_matches_paper_matrix(self):
        by_model = {row.model: row for row in table2.rows()}
        assert set(by_model) == {"A", "B", "B+", "C"}
        assert by_model["A"].timing_data == "none"
        assert by_model["B"].timing_data == "STA"
        assert by_model["C"].timing_data == "DTA"
        assert not by_model["A"].multi_vdd
        assert by_model["B+"].vdd_noise and not by_model["B"].vdd_noise
        assert by_model["C"].instruction_aware
        assert not any(by_model[m].instruction_aware
                       for m in ("A", "B", "B+"))

    def test_render(self):
        assert "probabilistic period violation" in table2.render()


class TestFig2:
    def test_qualitative_claims(self, ctx):
        result = experiments.run("fig2", TINY, context=ctx, points=121)
        # Every CDF is monotone non-decreasing in frequency.
        for curve in result.curves:
            assert np.all(np.diff(curve.probabilities) >= -1e-12)
        # Higher Vdd shifts the mul bit-24 CDF right (lower probability
        # at equal frequency).
        low = result.curve("l.mul", 24, 0.7)
        high = result.curve("l.mul", 24, 0.8)
        assert np.all(high.probabilities <= low.probabilities + 1e-12)
        assert high.probabilities.sum() < low.probabilities.sum()
        # High-significance bits fail no later than low bits.
        bit24 = result.curve("l.mul", 24, 0.7)
        bit3 = result.curve("l.mul", 3, 0.7)
        onset24 = bit24.first_failure_hz() or np.inf
        onset3 = bit3.first_failure_hz() or np.inf
        assert onset24 <= onset3

    def test_render(self, ctx):
        assert "l.mul" in fig2.render(
            experiments.run("fig2", TINY, context=ctx, points=61))


class TestFig4:
    def test_poff_ordering_matches_paper(self, ctx):
        result = experiments.run("fig4", TINY, context=ctx)
        mul = result.curve("l.mul 32-bit").poff_hz()
        add32 = result.curve("l.add 32-bit").poff_hz()
        add16 = result.curve("l.add 16-bit").poff_hz()
        assert mul is not None and add32 is not None and add16 is not None
        # Paper: 685 MHz < 746 MHz < 877 MHz.
        assert mul < add32 < add16

    def test_mse_saturates(self, ctx):
        result = experiments.run("fig4", TINY, context=ctx)
        for curve in result.curves:
            assert curve.mse[-1] > 0
            # Saturation: the top of the sweep is within 10x of the max.
            assert curve.mse[-1] > curve.mse.max() / 10

    def test_add16_mse_is_orders_below_add32(self, ctx):
        result = experiments.run("fig4", TINY, context=ctx)
        assert (result.curve("l.add 16-bit").mse.max()
                < result.curve("l.add 32-bit").mse.max() / 1e3)


class TestFig1:
    def test_model_b_cliff_and_bplus_shift(self, ctx):
        results = experiments.run("fig1", TINY, context=ctx)
        by_sigma = {r.sigma_v: r for r in results}
        # Model B onset sits at the STA limit.
        assert by_sigma[0.0].onset_hz == pytest.approx(
            ctx.sta_limit_hz(NOMINAL_VDD), rel=1e-6)
        # Noise moves the onset down, more for larger sigma.
        assert by_sigma[0.025].onset_hz < by_sigma[0.010].onset_hz \
            < by_sigma[0.0].onset_hz
        # Below the onset everything is correct and no faults inject;
        # above it, correctness collapses (hard threshold).
        for result in results:
            rows = result.rows()
            below = [r for r in rows
                     if r["frequency_mhz"] * 1e6 < result.onset_hz - 1e5]
            above = [r for r in rows
                     if r["frequency_mhz"] * 1e6 > result.onset_hz + 1e6]
            assert all(r["p_correct"] == 1.0 for r in below)
            assert all(r["fi_rate_per_kcycle"] == 0.0 for r in below)
            assert all(r["p_correct"] == 0.0 for r in above)
            assert all(r["fi_rate_per_kcycle"] > 0.0 for r in above)


class TestFig5:
    @pytest.fixture(scope="class")
    def results(self, ctx):
        return experiments.run("fig5", TINY, context=ctx)

    def test_six_configurations(self, results):
        assert len(results) == 6
        labels = {r.config.label for r in results}
        assert len(labels) == 6

    def test_correctness_collapses_across_sweep(self, results):
        for result in results:
            series = result.sweep.metric_series("p_correct")
            assert series[0] == 1.0, result.config.label
            assert series[-1] == 0.0, result.config.label

    def test_fi_rate_grows_with_frequency(self, results):
        for result in results:
            rates = result.sweep.metric_series("fi_rate_per_kcycle")
            assert rates[-1] > rates[0]

    def test_zero_noise_poff_beats_sta(self, results):
        no_noise = [r for r in results
                    if r.config.sigma_v == 0.0 and r.config.vdd == 0.7]
        gain = no_noise[0].poff_gain
        assert gain is not None and gain > 0.0

    def test_noise_reduces_poff_gain(self, results):
        at_07 = {r.config.sigma_v: r for r in results
                 if r.config.vdd == 0.7}
        gain_0 = at_07[0.0].poff_gain
        gain_25 = at_07[0.025].poff_gain
        assert gain_0 is not None
        if gain_25 is not None:
            assert gain_25 < gain_0


class TestFig6:
    def test_two_benchmark_smoke(self, ctx):
        results = experiments.run("fig6", TINY, context=ctx,
                           benchmarks=("mat_mult_8bit", "kmeans"))
        by_name = {r.benchmark: r for r in results}
        # Model B+'s hard threshold sits below the model-C PoFF of
        # every benchmark.
        for result in results:
            poff = result.poff_hz
            assert poff is None or poff > result.bplus_threshold_hz
        # Both benchmarks eventually fail completely.
        for result in results:
            assert result.sweep.metric_series("p_correct")[-1] == 0.0
        # Matmul carries an MSE metric that saturates high.
        assert max(by_name["mat_mult_8bit"].error_series()) >= 0.0


class TestFig7:
    def test_voltage_overscaling_tradeoff(self, ctx):
        result = experiments.run("fig7", TINY, context=ctx)
        assert {c.sigma_v for c in result.curves} == {0.0, 0.010, 0.025}
        no_noise = result.curve(0.0)
        # Power is monotone in voltage and normalized at the top.
        powers = [p.normalized_power for p in no_noise.points]
        assert powers == sorted(powers)
        assert powers[-1] == pytest.approx(1.0)
        # Without noise there is an error-free voltage-reduction window.
        poff = no_noise.poff_vdd()
        assert poff is not None and poff < 0.70
        assert no_noise.power_at_poff() < 1.0
        # The nominal point itself is error free without noise.
        top = no_noise.points[-1]
        assert top.point.p_correct == 1.0
