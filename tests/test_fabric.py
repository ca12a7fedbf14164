"""Tests for the distributed campaign fabric.

Covers the three tentpole layers end to end: the HTTP object service
and its :class:`HttpBackend` client (checksum-verified GETs,
conditional PUT races, retry, spool degradation + flush), the lease
ledger (expiry math, steal races, renew-after-steal rejection), and
the fabric worker dispatch including the kill-resume matrix case
where a worker SIGKILLed mid-lease is healed by its peer with
byte-identical rendered output.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import faults, obs
from repro.fabric import HttpBackend, LeaseLedger, LeaseLost, serve
from repro.fabric.worker import Batch, dispatch_fabric, plan_batches
from repro.mc.results import McPoint, TrialResult
from repro.mc.units import WorkUnit
from repro.store import ResultStore
from repro.store.backend import FsBackend


@pytest.fixture(autouse=True)
def _clean_plane(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULT_LOG", raising=False)
    monkeypatch.delenv("REPRO_STORE_SPOOL", raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture()
def service(tmp_path):
    """A live store service on a free loopback port."""
    svc = serve(tmp_path / "served")
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    host, port = svc.server_address
    try:
        yield svc, f"http://{host}:{port}"
    finally:
        svc.shutdown()
        svc.server_close()


def _backend(url, tmp_path) -> HttpBackend:
    return HttpBackend(url, spool_dir=tmp_path / "spool",
                       timeout_s=5.0)


def _trial(error=0.25):
    return TrialResult(finished=True, correct=True, error_value=error,
                       relative_error=error / 4, fault_count=1,
                       kernel_cycles=1234, alu_cycles=600, cycles=1300,
                       abort_reason=None)


def _point(label="p"):
    point = McPoint(label=label,
                    config={"frequency_hz": np.float64(7.25e8)})
    point.add(_trial())
    return point


def _key(seed=0):
    return {"kind": "mc_point", "schema": McPoint.SCHEMA,
            "experiment": "fabric-test", "scale": None, "seed": seed,
            "stream": "serial", "config": {"vdd": 0.7}}


class TestHttpBackend:
    def test_round_trip_and_conditional_put(self, service, tmp_path):
        _svc, url = service
        backend = _backend(url, tmp_path)
        assert backend.read("objects/aa/x.json") is None
        assert backend.write("objects/aa/x.json", b"payload")
        assert backend.read("objects/aa/x.json") == b"payload"
        assert backend.write("leases/b/g000001", b"A", if_absent=True)
        assert not backend.write("leases/b/g000001", b"B",
                                 if_absent=True)
        assert backend.read("leases/b/g000001") == b"A"
        assert backend.delete("objects/aa/x.json")
        assert not backend.delete("objects/aa/x.json")

    def test_concurrent_conditional_puts_one_winner(self, service,
                                                    tmp_path):
        _svc, url = service
        outcomes = {}

        def claim(index):
            backend = _backend(url, tmp_path / f"c{index}")
            outcomes[index] = backend.write(
                "leases/race/g000001", f"owner-{index}".encode(),
                if_absent=True)

        threads = [threading.Thread(target=claim, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winners = [i for i, won in outcomes.items() if won]
        assert len(winners) == 1
        body = _backend(url, tmp_path).read("leases/race/g000001")
        assert body == f"owner-{winners[0]}".encode()

    def test_torn_get_is_retried_to_success(self, service, tmp_path):
        # fabric.http.get:corrupt tears the first response body; the
        # checksum check catches it and the retry serves clean bytes.
        _svc, url = service
        backend = _backend(url, tmp_path)
        backend.write("objects/aa/x.json", b"precious-bytes")
        faults.configure("fabric.http.get:corrupt@after=1")
        assert backend.read("objects/aa/x.json") == b"precious-bytes"

    def test_transient_unreachable_put_is_retried(self, service,
                                                  tmp_path):
        _svc, url = service
        backend = _backend(url, tmp_path)
        faults.configure("fabric.http.put:oserror@after=1")
        assert backend.write("objects/aa/y.json", b"made-it")
        assert backend.read("objects/aa/y.json") == b"made-it"
        assert not backend._spool_entries()  # retried, not spooled

    def test_unreachable_service_spools_and_flushes(self, service,
                                                    tmp_path,
                                                    monkeypatch):
        svc, url = service
        backend = _backend(url, tmp_path)
        backend.policy = backend.policy.__class__(
            attempts=1, backoff_s=0.0)
        # Point the client at a dead port: writes degrade to the
        # local spool instead of failing the campaign.
        backend.url = "http://127.0.0.1:9"
        assert backend.write("objects/aa/z.json", b"parked")
        assert len(backend._spool_entries()) == 1
        ping = backend.ping()
        assert not ping["ok"] and ping["degraded"]
        # The degraded client still sees its own write.
        assert backend.read("objects/aa/z.json") == b"parked"
        # Conditional writes must lose, never spool: a claim that
        # cannot reach the arbiter has not won anything.
        assert not backend.write("leases/b/g000001", b"A",
                                 if_absent=True)
        assert len(backend._spool_entries()) == 1
        # Reconnect: the next successful round trip flushes the spool
        # oldest-first and the service converges.
        backend.url = url
        assert backend.read("objects/aa/z.json") == b"parked"
        assert not backend._spool_entries()
        ping = backend.ping()
        assert ping["ok"] and not ping["degraded"]
        assert svc.backend.read("objects/aa/z.json") == b"parked"

    def test_ping_reports_latency_and_objects(self, service, tmp_path):
        _svc, url = service
        ping = _backend(url, tmp_path).ping()
        assert ping["ok"] and ping["backend"] == "http"
        assert ping["latency_ms"] >= 0.0
        assert ping["spooled"] == 0 and not ping["degraded"]


class TestRemoteResultStore:
    def test_artifact_round_trip_over_http(self, service, tmp_path):
        _svc, url = service
        store = ResultStore(backend=_backend(url, tmp_path))
        sha = store.put(_key(), _point("remote"), label="remote")
        assert store.contains(_key())
        artifact = store.get(_key())
        assert artifact is not None and artifact.label == "remote"
        assert [entry.sha256 for entry in store.ls()] == [sha]
        assert store.delete(_key())
        assert store.get(_key()) is None

    def test_torn_write_quarantined_on_the_service(self, service,
                                                   tmp_path):
        svc, url = service
        store = ResultStore(backend=_backend(url, tmp_path))
        faults.configure("store.object_write:torn@after=1")
        store.put(_key(), _point())
        assert store.get(_key()) is None  # detected via envelope parse
        quarantine = Path(svc.backend.root) / "quarantine"
        assert list(quarantine.iterdir())

    def test_gc_refuses_to_run_remotely(self, service, tmp_path):
        _svc, url = service
        store = ResultStore(backend=_backend(url, tmp_path))
        with pytest.raises(RuntimeError, match="service host"):
            store.gc()


class TestLeaseLedger:
    def _ledger(self, tmp_path, ttl=5.0, start=100.0):
        clock = {"now": start}
        backend = FsBackend(tmp_path / "shared")
        ledger = LeaseLedger(backend, ttl_s=ttl,
                             clock=lambda: clock["now"])
        return ledger, clock

    def test_expiry_math(self, tmp_path):
        ledger, clock = self._ledger(tmp_path, ttl=5.0, start=100.0)
        lease = ledger.acquire("b0", "w0")
        assert lease.deadline_unix == 105.0
        clock["now"] = 104.999
        assert not ledger.lapsed(lease)
        clock["now"] = 105.0
        assert ledger.lapsed(lease)  # deadline itself is lapsed

    def test_held_lease_cannot_be_acquired(self, tmp_path):
        ledger, _clock = self._ledger(tmp_path)
        assert ledger.acquire("b0", "w0") is not None
        assert ledger.acquire("b0", "w1") is None
        assert ledger.acquire("b0", "w0") is None  # not even by owner

    def test_steal_after_lapse_bumps_generation(self, tmp_path):
        ledger, clock = self._ledger(tmp_path, ttl=5.0)
        first = ledger.acquire("b0", "w0")
        clock["now"] += 10.0
        stolen = ledger.acquire("b0", "w1")
        assert stolen is not None
        assert stolen.generation == first.generation + 1
        assert stolen.owner == "w1"

    def test_steal_race_has_one_put_if_absent_winner(self, tmp_path):
        # Two claimants race for the same lapsed lease: both read
        # generation 1, both PUT-if-absent generation 2 -- the backend
        # guarantees exactly one winner.
        ledger, clock = self._ledger(tmp_path, ttl=5.0)
        ledger.acquire("b0", "dead")
        clock["now"] += 10.0
        won_a = ledger.acquire("b0", "thief-a")
        won_b = ledger.acquire("b0", "thief-b")
        assert (won_a is None) != (won_b is None)
        winner = won_a or won_b
        assert ledger.latest("b0").owner == winner.owner

    def test_renew_extends_deadline(self, tmp_path):
        ledger, clock = self._ledger(tmp_path, ttl=5.0, start=100.0)
        lease = ledger.acquire("b0", "w0")
        clock["now"] = 103.0
        renewed = ledger.renew(lease)
        assert renewed.deadline_unix == 108.0
        assert ledger.latest("b0").deadline_unix == 108.0

    def test_renew_after_steal_is_rejected(self, tmp_path):
        ledger, clock = self._ledger(tmp_path, ttl=5.0)
        stale = ledger.acquire("b0", "w0")
        clock["now"] += 10.0
        assert ledger.acquire("b0", "w1") is not None  # the steal
        with pytest.raises(LeaseLost, match="held by w1"):
            ledger.renew(stale)

    def test_renew_heartbeat_fault_site(self, tmp_path):
        ledger, _clock = self._ledger(tmp_path)
        lease = ledger.acquire("b0", "w0")
        faults.configure("fabric.lease.renew:oserror@after=1")
        with pytest.raises(OSError, match="fabric.lease.renew"):
            ledger.renew(lease)

    def test_release_returns_batch_to_the_pool(self, tmp_path):
        ledger, _clock = self._ledger(tmp_path)
        lease = ledger.acquire("b0", "w0")
        ledger.release(lease)
        again = ledger.acquire("b0", "w1")
        assert again is not None and again.owner == "w1"

    def test_done_tombstone(self, tmp_path):
        ledger, _clock = self._ledger(tmp_path)
        assert not ledger.is_done("b0")
        ledger.mark_done("b0", "w0")
        assert ledger.is_done("b0")


def _fake_units(n):
    """Cheap, deterministic units persisting real mc_point artifacts."""
    units = []
    for seed in range(n):
        key = _key(seed)
        units.append(WorkUnit(
            label=f"u{seed}", key=key,
            compute=(lambda s=seed: _point(f"u{s}"))))
    return units


class TestFabricDispatch:
    def test_batches_are_deterministic_and_content_addressed(self):
        units = _fake_units(5)
        first = plan_batches(units, [0, 1, 2, 3, 4])
        again = plan_batches(units, [0, 1, 2, 3, 4])
        assert first == again
        assert [batch.indices for batch in first] == \
            [(0, 1), (2, 3), (4,)]
        assert len({batch.batch_id for batch in first}) == 3
        # A different pending subset replans identical ids for the
        # batches whose members did not change.
        assert isinstance(first[0], Batch)

    def test_dispatch_computes_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEASE_TTL_S", "5")
        monkeypatch.setenv("REPRO_STORE_NO_FSYNC", "1")
        from repro.campaign.orchestrator import _backstop, _compute_one
        store = ResultStore(tmp_path / "store")
        units = _fake_units(6)
        dispatch_fabric(units, list(range(6)), store, 2, _compute_one)
        outcome = _backstop(units, list(range(6)), store, print)
        assert sorted(outcome["computed"]) == list(range(6))
        assert outcome["failed"] == []
        for unit in units:
            assert store.get(unit.key) is not None

    def test_dispatch_reports_crashing_units_as_failed(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_STORE_NO_FSYNC", "1")
        from repro.campaign.orchestrator import _backstop, _compute_one
        store = ResultStore(tmp_path / "store")
        units = _fake_units(3)

        def explode():
            raise RuntimeError("boom")

        units[1] = WorkUnit(label="u1", key=_key(1), compute=explode)
        dispatch_fabric(units, [0, 1, 2], store, 2, _compute_one)
        outcome = _backstop(units, [0, 1, 2], store, print)
        assert sorted(outcome["computed"]) == [0, 2]
        assert outcome["failed"] == [1]


DRIVER = Path(__file__).parent / "_chaos_driver.py"


def _run_driver(store: Path, extra_args=(), env_extra=None):
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("REPRO_FAULTS", "REPRO_FAULT_LOG", "REPRO_TRACE"):
        env.pop(name, None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, str(DRIVER), str(store), *extra_args],
        capture_output=True, text=True, env=env, timeout=600)


class TestKillResumeFabric:
    """The matrix cell the fabric exists for: a worker dies mid-lease,
    its peer steals the batch, and the rendered output is
    byte-identical to a fork-dispatch baseline."""

    def test_worker_killed_mid_lease_is_healed_by_peer(
            self, tmp_path):
        baseline = _run_driver(tmp_path / "store-baseline")
        assert baseline.returncode == 0, baseline.stderr[-2000:]
        assert baseline.stdout

        log = tmp_path / "faults.jsonl"
        trace = tmp_path / "trace.jsonl"
        chaotic = _run_driver(
            tmp_path / "store-fabric", ("--fabric-workers", "2"),
            env_extra={
                # The site fires only while a lease is held, so
                # after=1 SIGKILLs worker 1 mid-lease with one unit
                # of its batch already computed.
                "REPRO_FAULTS": "fabric.worker.kill.w1:kill@after=1",
                "REPRO_FAULT_LOG": str(log),
                "REPRO_TRACE": str(trace),
                "REPRO_LEASE_TTL_S": "1.5",
                "REPRO_FABRIC_POLL_S": "0.05",
                "REPRO_STORE_NO_FSYNC": "1",
            })
        # The parent survives its worker's death and completes.
        assert chaotic.returncode == 0, chaotic.stderr[-2000:]
        assert chaotic.stdout == baseline.stdout

        fired = faults.read_log(log)
        assert [(f["site"], f["mode"]) for f in fired] == \
            [("fabric.worker.kill.w1", "kill")]
        # The dead worker's lease was *stolen*, not merely backstopped:
        # the surviving worker recovered the batch through the ledger.
        totals = obs.counter_totals(obs.read_trace(trace))
        assert totals.get("fabric.lease.steal", 0) >= 1 \
            or totals.get("campaign.backstop", 0) >= 1
        assert totals.get("fabric.worker.died", 0) == 1

    def test_fabric_run_matches_pool_run_on_shared_store(
            self, tmp_path):
        # Same store, fabric first, then a --jobs 2 fork resume:
        # everything is cached, output identical -- the two dispatch
        # paths share keys exactly.
        store = tmp_path / "store"
        fabric = _run_driver(store, ("--fabric-workers", "2"),
                             env_extra={
                                 "REPRO_STORE_NO_FSYNC": "1",
                                 "REPRO_FABRIC_POLL_S": "0.05",
                             })
        assert fabric.returncode == 0, fabric.stderr[-2000:]
        pooled = _run_driver(store)
        assert pooled.returncode == 0, pooled.stderr[-2000:]
        assert pooled.stdout == fabric.stdout


class TestFabricStats:
    def test_fabric_split_aggregates_spans_and_counters(self):
        records = [
            {"t": "span", "name": "fabric.batch", "pid": 1, "id": "a",
             "ts": 0.0, "dur": 2000.0, "a": {"stolen": False}},
            {"t": "span", "name": "fabric.batch", "pid": 2, "id": "b",
             "ts": 10.0, "dur": 4000.0, "a": {"stolen": True}},
            {"t": "ctr", "pid": 1, "ts": 20.0,
             "counters": {"fabric.worker.poll": 3,
                          "fabric.http.retry": 2}},
        ]
        split = obs.fabric_split(records)
        assert split["batches"] == 2
        assert split["first_claims"] == 1 and split["steals"] == 1
        assert split["steal_ms"] == 4.0
        assert split["queue_polls"] == 3
        assert split["http_retries"] == 2
        assert obs.fabric_split([]) is None

    def test_render_stats_has_a_fabric_section(self):
        records = [
            {"t": "span", "name": "fabric.batch", "pid": 1, "id": "a",
             "ts": 0.0, "dur": 2000.0, "a": {"stolen": True}},
            {"t": "ctr", "pid": 1, "ts": 5.0,
             "counters": {"fabric.lease.steal": 1}},
        ]
        text = obs.render_stats(records)
        assert "fabric: 1 leased batch(es)" in text
        assert "1 stolen" in text


class TestStorePingCli:
    def test_ping_healthy_and_strict_degraded(self, service, tmp_path,
                                              capsys, monkeypatch):
        from repro.cli import main
        monkeypatch.setenv("REPRO_STORE_SPOOL",
                           str(tmp_path / "spool"))
        _svc, url = service
        assert main(["store", "ping", url]) == 0
        out = capsys.readouterr().out
        assert "healthy" in out and "latency_ms" in out
        # Unreachable service: --strict turns degraded into rc 1.
        assert main(["store", "ping", "http://127.0.0.1:9"]) == 0
        assert main(["store", "ping", "http://127.0.0.1:9",
                     "--strict"]) == 1
        out = capsys.readouterr().out
        assert "DEGRADED" in out
