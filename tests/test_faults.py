"""The deterministic fault-injection plane (src/repro/faults)."""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.faults import uniform


@pytest.fixture(autouse=True)
def _clean_plane(monkeypatch):
    """Every test starts and ends without a plane or env schedule."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULT_LOG", raising=False)
    faults.reset()
    yield
    faults.reset()


class TestGrammar:
    def test_full_schedule_parses(self):
        rules, seed = faults.parse_schedule(
            "seed=7;store.object_write:torn@p=0.1;"
            "campaign.worker.kill.w1:kill@after=3;"
            "campaign.unit_run:raise@hits=2+5+9,times=2;"
            "campaign.*:fail@p=1.0")
        assert seed == 7
        assert len(rules) == 4
        assert rules[0].site == "store.object_write"
        assert rules[0].mode == "torn"
        assert rules[0].p == 0.1
        assert rules[1].after == 3
        assert rules[2].hits == (2, 5, 9)
        assert rules[2].times == 2
        assert rules[3].site == "campaign.*"

    def test_empty_clauses_are_skipped(self):
        rules, seed = faults.parse_schedule(";;seed=3;;a.b:kill@p=1;")
        assert seed == 3
        assert len(rules) == 1

    @pytest.mark.parametrize("spec", [
        "no-colon@p=0.1",          # missing site:mode
        ":kill@p=0.1",             # empty site
        "a.b:@p=0.1",              # empty mode
        "a.b:kill@p=x",            # unparsable float
        "a.b:kill@after=x",        # unparsable int
        "a.b:kill@bogus=1",        # unknown param
        "a.b:kill@p",              # param without =
        "seed=x",                  # unparsable seed
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_schedule(spec)

    def test_prefix_match(self):
        (rule,), _ = faults.parse_schedule("store.*:torn@p=1")
        assert rule.matches("store.object_write")
        assert rule.matches("store.object_read")
        assert not rule.matches("campaign.shard_dispatch")


class TestDecisions:
    def test_after_fires_exactly_on_the_nth_hit(self):
        plane = faults.configure("site.x:kill-me@after=3")
        fired = [plane.fire("site.x") for _ in range(6)]
        assert fired == [None, None, "kill-me", None, None, None]

    def test_hits_fire_exactly_on_the_listed_hits(self):
        plane = faults.configure("site.x:raise@hits=1+4")
        fired = [plane.fire("site.x") for _ in range(5)]
        assert fired == ["raise", None, None, "raise", None]

    def test_times_caps_an_unconditional_rule(self):
        plane = faults.configure("site.x:raise@times=2")
        fired = [plane.fire("site.x") for _ in range(4)]
        assert fired == ["raise", "raise", None, None]

    def test_probability_is_a_pure_function_of_seed_site_hit(self):
        spec = "seed=11;site.x:torn@p=0.5"
        plane = faults.configure(spec)
        first = [plane.fire("site.x") for _ in range(50)]
        expected = ["torn" if uniform(11, "site.x", hit) < 0.5 else None
                    for hit in range(1, 51)]
        assert first == expected
        assert any(first) and not all(first)
        faults.reset()
        second_plane = faults.configure(spec)
        assert [second_plane.fire("site.x") for _ in range(50)] == first

    def test_different_sites_count_hits_independently(self):
        plane = faults.configure("a.x:raise@after=2;b.y:raise@after=1")
        assert plane.fire("a.x") is None
        assert plane.fire("b.y") == "raise"
        assert plane.fire("a.x") == "raise"

    def test_trip_raises_injected_fault(self):
        faults.configure("site.x:flake@after=1")
        with pytest.raises(faults.InjectedFault, match="site.x"):
            faults.trip("site.x")
        faults.trip("site.x")  # hit 2: does not fire

    def test_trip_is_a_noop_without_a_plane(self):
        faults.trip("any.site")


class TestActivation:
    def test_env_var_activates_and_deactivates(self, monkeypatch):
        assert not faults.active()
        monkeypatch.setenv("REPRO_FAULTS", "site.x:raise@after=1")
        assert faults.active()
        assert faults.fire("site.x") == "raise"
        monkeypatch.delenv("REPRO_FAULTS")
        assert not faults.active()
        assert faults.fire("site.x") is None

    def test_explicit_configure_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "env.site:raise@after=1")
        faults.configure("cli.site:raise@after=1")
        assert faults.fire("env.site") is None
        assert faults.fire("cli.site") == "raise"
        faults.reset()
        assert faults.fire("env.site") == "raise"

    def test_configure_none_clears(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "env.site:raise@after=1")
        faults.configure(None)
        assert not faults.active()


class TestLogAndReplay:
    def test_fired_faults_are_logged_as_jsonl(self, tmp_path):
        log = tmp_path / "faults.jsonl"
        plane = faults.configure("site.x:torn@hits=2+3",
                                 log_path=str(log))
        for _ in range(4):
            plane.fire("site.x")
        records = faults.read_log(log)
        assert [(r["site"], r["mode"], r["hit"]) for r in records] \
            == [("site.x", "torn", 2), ("site.x", "torn", 3)]
        assert all("pid" in r and "unix" in r for r in records)
        assert plane.fired == records

    def test_read_log_skips_torn_lines(self, tmp_path):
        log = tmp_path / "faults.jsonl"
        good = json.dumps({"site": "a.b", "mode": "torn", "hit": 1})
        log.write_text(good + "\n" + good[: len(good) // 2] + "\n")
        assert len(faults.read_log(log)) == 1

    def test_schedule_from_log_pins_and_replays(self, tmp_path):
        log = tmp_path / "faults.jsonl"
        plane = faults.configure("seed=5;site.x:torn@p=0.4;"
                                 "site.y:raise@after=2",
                                 log_path=str(log))
        original = [plane.fire("site.x") for _ in range(20)]
        plane.fire("site.y")
        plane.fire("site.y")
        pinned = faults.schedule_from_log(faults.read_log(log))
        faults.reset()
        replay_plane = faults.configure(pinned)
        replayed = [replay_plane.fire("site.x") for _ in range(20)]
        assert replayed == original
        assert replay_plane.fire("site.y") is None
        assert replay_plane.fire("site.y") == "raise"
