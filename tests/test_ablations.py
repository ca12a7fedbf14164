"""Tests for the ablation studies of the reproduction's design choices."""

import pytest

from repro.experiments import ablations
from repro.experiments.context import ExperimentContext
from repro.experiments.scale import Scale
from repro.mc.units import resolve_units

TINY = Scale(name="tiny-abl", trials=6, freq_points=5,
             kernel_scale="quick", char_cycles=192, fig4_samples=384,
             voltage_points=5)


@pytest.fixture(scope="module")
def ctx() -> ExperimentContext:
    return ExperimentContext.create(TINY, seed=2016)


def _semantics(ctx: ExperimentContext) -> ablations.SemanticsAblation:
    points, _, _ = resolve_units(ablations.semantics_point_units(ctx),
                                 None)
    return ablations.assemble_semantics(points)


def _adders(store=None) -> ablations.AdderTopologyAblation:
    parts, _, _ = resolve_units(ablations.adder_topology_units(TINY),
                                store)
    return ablations.assemble_adders(parts)


class TestGlitchModelAblation:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return ablations.run_glitch_model_ablation(TINY, context=ctx)

    def test_optimistic_model_claims_more_headroom(self, result):
        # Ignoring glitches raises the PoFF of the glitch-dominated
        # arithmetic paths.  (The two event models are incomparable in
        # general: the value-change engine also counts non-sensitized
        # value toggles that the masking engine excludes, which matters
        # for mux-heavy logic paths.)
        for mnemonic in ("l.mul", "l.muli", "l.add", "l.sub"):
            assert (result.poff_value_change_hz[mnemonic]
                    >= result.poff_sensitized_hz[mnemonic] - 1e-6)

    def test_multiplier_inflation_is_substantial(self, result):
        # The XOR-rich multiplier is glitch dominated: the optimistic
        # model inflates its PoFF by a double-digit percentage.
        assert result.headroom_inflation("l.mul") > 0.10


class TestSemanticsAblation:
    def test_both_semantics_inject_similar_rates(self, ctx):
        result = _semantics(ctx)
        flip_rate = result.summary_flip["fi_rate_per_kcycle"]
        stale_rate = result.summary_stale["fi_rate_per_kcycle"]
        # The fault *mask* distribution is identical; only the applied
        # corruption differs.  Rates must be in the same ballpark.
        assert flip_rate > 0 or stale_rate >= 0
        if flip_rate > 0 and stale_rate > 0:
            assert 0.2 < flip_rate / stale_rate < 5.0


class TestAdderTopologyAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return _adders()

    def test_artifact_round_trip_is_exact(self, result):
        import json
        back = ablations.AdderTopologyAblation.from_json(
            json.loads(json.dumps(result.to_json())))
        assert back.poffs_hz == result.poffs_hz

    def test_warm_store_rerun_is_dta_free_and_identical(
            self, result, tmp_path, monkeypatch):
        from repro.store import ResultStore
        store = ResultStore(tmp_path / "store")
        cold = _adders(store)
        assert cold.poffs_hz == result.poffs_hz
        monkeypatch.setenv("REPRO_FORBID_DTA", "1")
        warm = _adders(store)
        assert warm.poffs_hz == result.poffs_hz

    def test_all_topologies_measured(self, result):
        assert set(result.poffs_hz) == {"ripple", "carry-select",
                                        "kogge-stone"}

    def test_narrow_operands_never_fail_earlier(self, result):
        for kind in result.poffs_hz:
            assert result.width_spread(kind) >= 1.0 - 1e-9

    def test_ripple_has_largest_width_spread(self, result):
        """Ripple's linear arrival profile makes the 16-bit add PoFF
        much higher; parallel-prefix flattens the profile.  The
        carry-select default sits in between, closest to the paper's
        877/746 = 1.18."""
        assert (result.width_spread("ripple")
                >= result.width_spread("kogge-stone"))

    def test_default_topology_near_paper_spread(self, result):
        assert 1.0 < result.width_spread("carry-select") < 1.8


class TestRender:
    def test_render_all(self, ctx):
        glitch = ablations.run_glitch_model_ablation(TINY, context=ctx)
        semantics = _semantics(ctx)
        adders = _adders()
        text = ablations.render_all(glitch, semantics, adders)
        assert "glitch model" in text
        assert "carry-select" in text
