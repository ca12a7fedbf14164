"""Tests for the campaign orchestrator and store-aware drivers.

The invariants under test are the subsystem's reason to exist:

* a store-served (warm) figure run is byte-identical to a fresh one
  and performs **zero** Monte-Carlo simulation;
* a campaign killed mid-run resumes to byte-identical rendered output;
* sharding units over a process pool changes nothing but wall time.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro import cli, experiments
from repro.campaign import CAMPAIGN_EXPERIMENTS, campaign_status, \
    plan_campaign, run_campaign
from repro.campaign.orchestrator import _init_worker, _run_shard
from repro.experiments import ablations, fig2, fig4, fig7
from repro.experiments.context import ExperimentContext
from repro.experiments.scale import Scale
from repro.mc.units import ExperimentPlan, WorkUnit, resolve_units
from repro.store import ResultStore

TINY = Scale(name="tiny", trials=4, freq_points=4, kernel_scale="quick",
             char_cycles=128, fig4_samples=128, voltage_points=3)

SEED = 2016


def _render(name: str, **kwargs) -> str:
    """One experiment resolved in order by ``experiments.run``, rendered."""
    return experiments.EXPERIMENTS[name].render(
        experiments.run(name, TINY, seed=SEED, **kwargs))


@pytest.fixture(scope="module")
def ctx() -> ExperimentContext:
    return ExperimentContext.create(TINY, seed=SEED)


@pytest.fixture(scope="module")
def fig7_truth(ctx) -> str:
    """Rendered fig7 with no store involved: the ground truth."""
    return _render("fig7", context=ctx)


@pytest.fixture()
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


class _Forbidden(Exception):
    pass


class TestStoreAwareDrivers:
    def test_warm_fig7_is_identical_and_simulation_free(
            self, ctx, fig7_truth, store, monkeypatch):
        cold = _render("fig7", context=ctx, store=store)
        assert cold == fig7_truth

        def boom(*args, **kwargs):
            raise _Forbidden("run_point called on a warm store")
        monkeypatch.setattr("repro.experiments.fig7.run_point", boom)
        warm = _render("fig7", context=ctx, store=store)
        assert warm == fig7_truth

    def test_characterization_persists_across_contexts(self, store):
        first = ExperimentContext.create(TINY, seed=SEED, store=store)
        tables = first.characterization(0.7)
        assert any(entry.kind == "alu_characterization"
                   for entry in store.ls())
        # A fresh context (fresh process in real life) reloads
        # bit-identical tables from the store.
        import numpy as np
        from repro.timing import characterize
        second = ExperimentContext.create(TINY, seed=SEED, store=store)
        characterize.clear_cache()  # drop the in-process cache
        reloaded = second.characterization(0.7)
        assert reloaded is not tables
        assert reloaded.mnemonics == tables.mnemonics
        for mnemonic in tables.mnemonics:
            assert np.array_equal(
                reloaded.cdfs[mnemonic].critical_rows,
                tables.cdfs[mnemonic].critical_rows)


class TestCampaign:
    def test_serial_campaign_matches_direct_driver(self, fig7_truth,
                                                   store):
        report = run_campaign("fig7", TINY, seed=SEED, store=store,
                              jobs=1)
        assert report.rendered == fig7_truth
        assert report.computed == report.total and report.cached == 0

    def test_status_tracks_progress(self, store):
        status = campaign_status("fig7", TINY, SEED, store)
        assert status.done == 0 and len(status.pending) == status.total
        run_campaign("fig7", TINY, seed=SEED, store=store, jobs=1)
        status = campaign_status("fig7", TINY, SEED, store)
        assert status.done == status.total and status.pending == []

    def test_resume_after_kill_is_byte_identical(self, fig7_truth,
                                                 store):
        # Kill the campaign mid-run: abort after 4 persisted units
        # (the store state is then exactly that of a SIGKILLed run,
        # since every unit lands atomically the moment it completes).
        budget = 4

        class _Killed(Exception):
            pass

        original_put = store.put
        calls = {"n": 0}

        def killing_put(key, artifact, label=""):
            if calls["n"] >= budget:
                raise _Killed()
            calls["n"] += 1
            return original_put(key, artifact, label=label)

        store.put = killing_put
        with pytest.raises(_Killed):
            run_campaign("fig7", TINY, seed=SEED, store=store, jobs=1)
        store.put = original_put

        partial = campaign_status("fig7", TINY, SEED, store)
        assert 0 < partial.done < partial.total

        # Resume (same call again): only the missing units execute and
        # the rendered output is byte-identical to an uninterrupted run.
        report = run_campaign("fig7", TINY, seed=SEED, store=store,
                              jobs=1)
        assert report.cached == partial.done
        assert report.computed == partial.total - partial.done
        assert report.rendered == fig7_truth

    def test_pool_vs_serial_equivalence(self, fig7_truth, store,
                                        tmp_path):
        pooled = run_campaign("fig7", TINY, seed=SEED, store=store,
                              jobs=3)
        assert pooled.rendered == fig7_truth
        # And a warm resume over the pooled store renders identically
        # without computing anything.
        resumed = run_campaign("fig7", TINY, seed=SEED, store=store,
                               jobs=1)
        assert resumed.computed == 0
        assert resumed.rendered == fig7_truth

    def test_campaign_rejects_missing_store(self):
        with pytest.raises(ValueError):
            run_campaign("fig7", TINY, seed=SEED, store=None)

    def test_unknown_experiment(self, store):
        with pytest.raises(KeyError):
            run_campaign("nope", TINY, seed=SEED, store=store)


class TestCampaignWarm:
    def test_warm_campaign_is_simulation_free(self, store, fig7_truth):
        run_campaign("fig7", TINY, seed=SEED, store=store, jobs=1)
        # Second run: every unit is a store hit; forbid the simulator.
        import repro.experiments.fig7 as fig7_module

        def boom(*args, **kwargs):
            raise AssertionError("run_point called on a warm campaign")

        original = fig7_module.run_point
        fig7_module.run_point = boom
        try:
            report = run_campaign("fig7", TINY, seed=SEED, store=store,
                                  jobs=1)
        finally:
            fig7_module.run_point = original
        assert report.cached == report.total
        assert report.rendered == fig7_truth


class TestOtherPlans:
    def test_fig5_plan_shape(self, ctx):
        plan = plan_campaign("fig5", ctx, SEED)
        assert len(plan.units) == 6 * TINY.freq_points
        assert len({ResultStore.key_of(unit.key)
                    for unit in plan.units}) == len(plan.units)

    def test_fig6_campaign_small(self, ctx, store):
        # Two benchmarks only, driven through the driver API (the
        # campaign registry runs the full figure; this keeps CI fast).
        benchmarks = ("mat_mult_8bit",)
        truth = _render("fig6", context=ctx, benchmarks=benchmarks)
        cold = _render("fig6", context=ctx, benchmarks=benchmarks,
                       store=store)
        warm = _render("fig6", context=ctx, benchmarks=benchmarks,
                       store=store)
        assert cold == truth and warm == truth

    def test_ablations_semantics_store_round_trip(self, ctx, store):
        def semantics(store):
            points, _, _ = resolve_units(
                ablations.semantics_point_units(ctx, seed=SEED), store)
            return ablations.assemble_semantics(points)
        truth = semantics(None)
        cold = semantics(store)
        warm = semantics(store)
        assert cold == truth and warm == truth

    def test_fig5_units_label_their_condition(self, ctx):
        plan = plan_campaign("fig5", ctx, SEED)
        assert all(unit.label.startswith("fig5:")
                   for unit in plan.units)


class TestCurveArtifacts:
    """fig2/fig4 curves as first-class store artifacts."""

    def _cdf_curve(self) -> fig2.CdfCurve:
        rng = np.random.default_rng(3)
        return fig2.CdfCurve(
            mnemonic="l.mul", bit=24, vdd=0.7,
            frequencies_hz=np.linspace(8e8, 2e9, 17),
            probabilities=rng.random(17))

    def _mse_curve(self) -> fig4.InstructionMseCurve:
        rng = np.random.default_rng(4)
        return fig4.InstructionMseCurve(
            label="l.add 16-bit", mnemonic="l.add", operand_bits=15,
            frequencies_hz=np.linspace(6.5e8, 1.25e9, 13),
            mse=rng.random(13) * 1e9)

    def test_fig2_curve_round_trip_bit_exact(self):
        curve = self._cdf_curve()
        back = fig2.CdfCurve.from_json(
            json.loads(json.dumps(curve.to_json())))
        assert back.mnemonic == curve.mnemonic
        assert back.bit == curve.bit and back.vdd == curve.vdd
        assert back.frequencies_hz.tobytes() == \
            curve.frequencies_hz.tobytes()
        assert back.probabilities.tobytes() == \
            curve.probabilities.tobytes()
        assert back.frequencies_hz.dtype == curve.frequencies_hz.dtype

    def test_fig4_curve_round_trip_bit_exact(self):
        curve = self._mse_curve()
        back = fig4.InstructionMseCurve.from_json(
            json.loads(json.dumps(curve.to_json())))
        assert back.label == curve.label
        assert back.operand_bits == curve.operand_bits
        assert back.frequencies_hz.tobytes() == \
            curve.frequencies_hz.tobytes()
        assert back.mse.tobytes() == curve.mse.tobytes()
        assert back.poff_hz() == curve.poff_hz()

    def test_schema_guard(self):
        payload = self._cdf_curve().to_json()
        payload["schema"] = fig2.FIG2_CURVE_SCHEMA + 1
        with pytest.raises(ValueError):
            fig2.CdfCurve.from_json(payload)
        payload = self._mse_curve().to_json()
        payload["schema"] = fig4.FIG4_CURVE_SCHEMA + 1
        with pytest.raises(ValueError):
            fig4.InstructionMseCurve.from_json(payload)

    def test_store_round_trip_through_kind_registry(self, store):
        curve = self._cdf_curve()
        from repro.mc.units import work_unit_key
        key = work_unit_key("fig2_curve", "fig2", None, SEED,
                            {"mnemonic": "l.mul", "bit": 24})
        store.put(key, curve, label="curve")
        back = store.get(key)
        assert isinstance(back, fig2.CdfCurve)
        assert back.probabilities.tobytes() == \
            curve.probabilities.tobytes()

    def test_warm_fig2_is_identical_and_dta_free(self, ctx, store,
                                                 monkeypatch):
        # The CLI flow: a store-attached context persists the
        # characterizations, curves land as fig2_curve units.
        truth = _render("fig2", context=ctx, points=61)
        cold_ctx = ExperimentContext.create(TINY, seed=SEED,
                                            store=store)
        cold = _render("fig2", context=cold_ctx, points=61)
        assert cold == truth
        # A fresh process (fresh context, cold in-memory caches) must
        # serve the rerun entirely from the store: any DTA is a bug.
        from repro.timing import characterize
        characterize.clear_cache()
        monkeypatch.setenv("REPRO_FORBID_DTA", "1")
        warm_ctx = ExperimentContext.create(TINY, seed=SEED,
                                            store=store)
        warm = _render("fig2", context=warm_ctx, points=61)
        assert warm == truth

    def test_warm_fig4_is_identical_and_dta_free(self, ctx, store,
                                                 monkeypatch):
        truth = _render("fig4", context=ctx)
        cold = _render("fig4", context=ctx, store=store)
        assert cold == truth
        monkeypatch.setenv("REPRO_FORBID_DTA", "1")
        warm = _render("fig4", context=ctx, store=store)
        assert warm == truth

    def test_fig4_variants_are_order_independent(self, ctx):
        # Decomposed units must not share RNG state: computing a
        # variant alone matches computing it after the others.
        units = fig4.curve_units(ctx, seed=SEED)
        alone = units[2].compute()
        in_order = [unit.compute() for unit in units][2]
        assert alone.mse.tobytes() == in_order.mse.tobytes()


class TestCampaignAll:
    @pytest.fixture(scope="class")
    def truth_store(self, store_factory) -> ResultStore:
        return store_factory("truth")

    @pytest.fixture(scope="class")
    def all_truth(self, truth_store) -> str:
        """Uninterrupted `campaign run all` output: the ground truth."""
        report = run_campaign("all", TINY, seed=SEED, store=truth_store,
                              jobs=1)
        return report.rendered

    @pytest.fixture(scope="class")
    def store_factory(self, tmp_path_factory):
        def make(name):
            return ResultStore(tmp_path_factory.mktemp(name) / "store")
        return make

    def test_all_covers_every_campaign_experiment(self, all_truth):
        for name in ("fig2", "fig4", "fig5", "fig6", "fig7",
                     "ablations"):
            assert f"\n{name} (scale: tiny)\n" in all_truth

    def test_all_sections_match_direct_drivers(self, all_truth, ctx,
                                               fig7_truth):
        assert fig7_truth in all_truth
        assert _render("fig4", context=ctx) in all_truth

    @pytest.mark.parametrize("name", CAMPAIGN_EXPERIMENTS)
    def test_driver_render_is_campaign_render_from_shared_entries(
            self, name, all_truth, truth_store, monkeypatch):
        # `experiments.run` resolves a plan's units in order, the
        # campaign scans and dispatches them: on the store `all`
        # filled, both must be served without computing and render
        # byte for byte alike.
        monkeypatch.setenv("REPRO_FORBID_MC", "1")
        monkeypatch.setenv("REPRO_FORBID_DTA", "1")
        warm_ctx = ExperimentContext.create(TINY, seed=SEED,
                                            store=truth_store)
        driver = plan_campaign(name, warm_ctx, SEED).render(
            experiments.run(name, TINY, SEED, context=warm_ctx))
        report = run_campaign(name, TINY, seed=SEED, store=truth_store)
        assert report.computed == 0
        assert driver == report.rendered

    def test_resume_after_kill_is_byte_identical(self, all_truth,
                                                 store_factory):
        store = store_factory("killed")
        budget = 5

        class _Killed(Exception):
            pass

        original_put = store.put
        calls = {"n": 0}

        def killing_put(key, artifact, label=""):
            if calls["n"] >= budget:
                raise _Killed()
            calls["n"] += 1
            return original_put(key, artifact, label=label)

        store.put = killing_put
        with pytest.raises(_Killed):
            run_campaign("all", TINY, seed=SEED, store=store, jobs=1)
        store.put = original_put

        partial = campaign_status("all", TINY, SEED, store)
        assert 0 < partial.done < partial.total

        report = run_campaign("all", TINY, seed=SEED, store=store,
                              jobs=1)
        assert report.rendered == all_truth
        assert report.computed == partial.total - partial.done

    def test_warm_all_is_simulation_free(self, all_truth, store_factory,
                                         monkeypatch):
        store = store_factory("warm")
        run_campaign("all", TINY, seed=SEED, store=store, jobs=1)
        monkeypatch.setenv("REPRO_FORBID_MC", "1")
        monkeypatch.setenv("REPRO_FORBID_DTA", "1")
        report = run_campaign("all", TINY, seed=SEED, store=store,
                              jobs=1)
        assert report.computed == 0
        assert report.rendered == all_truth


class TestReportAccuracy:
    def test_shards_report_only_what_they_computed(self, ctx, store):
        # Pre-store one unit, then hand a shard both indices: the
        # race recheck must skip the stored one and the shard must not
        # count it as computed.
        units = fig7.point_units(ctx, seed=SEED)[:2]
        store.put(units[0].key, units[0].compute(),
                  label=units[0].label)
        _init_worker({"units": units, "store": store})
        outcome = _run_shard([0, 1])
        assert outcome["computed"] == [1]
        assert outcome["failed"] == []


class TestRegistry:
    """One registry: every experiment surface resolves through it."""

    def test_every_experiment_command_resolves_to_a_plan(self, ctx):
        parser = cli.build_parser()
        assert set(CAMPAIGN_EXPERIMENTS) <= set(experiments.EXPERIMENTS)
        for name in experiments.EXPERIMENTS:
            assert parser.parse_args([name]).command == name
            plan = plan_campaign(name, ctx, SEED)
            assert isinstance(plan, ExperimentPlan)
            assert all(isinstance(unit, WorkUnit) for unit in plan.units)
        for name in CAMPAIGN_EXPERIMENTS + ("all",):
            args = parser.parse_args(["campaign", "run", name])
            assert args.experiment == name

    @pytest.mark.parametrize("name", CAMPAIGN_EXPERIMENTS + ("all",))
    def test_cold_status_warns_about_exactly_the_planned_voltages(
            self, name, store, monkeypatch):
        planned: set[float] = set()
        characterized = ExperimentContext.characterized

        def recording(context, config):
            planned.add(config.vdd)
            return characterized(context, config)
        monkeypatch.setattr(ExperimentContext, "characterized", recording)
        warnings: list[str] = []
        campaign_status(name, TINY, SEED, store, log=warnings.append)
        warned = {float(volts) for message in warnings
                  for volts in re.findall(r"(\d+\.\d+)V\b", message)}
        assert warned == planned
        assert len(warnings) == (1 if planned else 0)


class TestColdStoreDetection:
    def test_foreign_characterization_does_not_suppress_warning(
            self, store):
        # A characterization persisted for a *different* seed must not
        # hide that this campaign's planning will run DTA.
        other = ExperimentContext.create(TINY, seed=SEED + 1,
                                         store=store)
        other.characterization(0.7)
        assert any(entry.kind == "alu_characterization"
                   for entry in store.ls())
        warnings: list[str] = []
        campaign_status("fig7", TINY, SEED, store,
                        log=warnings.append)
        assert any("DTA" in message for message in warnings)

    def test_matching_characterization_silences_warning(self, store):
        mine = ExperimentContext.create(TINY, seed=SEED, store=store)
        mine.characterization(0.7)
        warnings: list[str] = []
        campaign_status("fig7", TINY, SEED, store,
                        log=warnings.append)
        assert warnings == []


class TestFailureIsolation:
    """Crashing units must not abort or poison the campaign."""

    @pytest.fixture(autouse=True)
    def _clean_plane(self, monkeypatch):
        from repro import faults
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_FAULT_LOG", raising=False)
        faults.reset()
        yield
        faults.reset()

    def test_failed_unit_is_recorded_and_the_rest_complete(self, store):
        from repro import faults
        from repro.campaign.failures import failure_key
        faults.configure("campaign.unit_run:raise@after=1")
        report = run_campaign("fig7", TINY, seed=SEED, store=store,
                              jobs=1)
        assert report.failed == 1
        assert len(report.failures) == 1
        assert report.computed == report.total - 1
        assert "NOT RENDERED" in report.rendered
        assert report.failures[0] in report.rendered
        assert "FAILED" in report.summary()
        # The marker is in the store, with the traceback and count.
        plan = plan_campaign("fig7",
                             ExperimentContext.create(
                                 TINY, seed=SEED, store=store), SEED)
        failed_unit = next(unit for unit in plan.units
                           if unit.label == report.failures[0])
        marker = store.get(failure_key(failed_unit.key))
        assert marker is not None
        assert marker.attempts == 1
        assert "InjectedFault" in marker.error

    def test_status_reports_failed_separately_from_pending(self, store):
        from repro import faults
        faults.configure("campaign.unit_run:raise@after=1")
        run_campaign("fig7", TINY, seed=SEED, store=store, jobs=1)
        faults.reset()
        status = campaign_status("fig7", TINY, SEED, store)
        assert len(status.failed) == 1
        assert "attempts=1" in status.failed[0]
        assert status.pending == []
        assert status.done == status.total - 1
        assert "1 failed" in status.summary()

    def test_max_retries_heals_a_flaky_unit_in_one_run(self, store):
        from repro import faults
        faults.configure("campaign.unit_run:raise@hits=1")
        report = run_campaign("fig7", TINY, seed=SEED, store=store,
                              jobs=1, max_retries=2)
        assert report.failed == 0
        assert report.computed == report.total
        status = campaign_status("fig7", TINY, SEED, store)
        assert status.failed == []  # success cleared the marker

    def test_rerun_clears_the_marker_and_renders(self, store, ctx,
                                                 fig7_truth):
        from repro import faults
        faults.configure("campaign.unit_run:raise@after=1")
        first = run_campaign("fig7", TINY, seed=SEED, store=store,
                             jobs=1)
        assert first.failed == 1
        faults.reset()
        second = run_campaign("fig7", TINY, seed=SEED, store=store,
                              jobs=1)
        assert second.failed == 0
        assert second.computed == 1  # exactly the previously failed unit
        assert second.rendered == fig7_truth
        status = campaign_status("fig7", TINY, SEED, store)
        assert status.failed == []
        assert status.pending == []
