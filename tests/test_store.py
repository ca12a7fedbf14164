"""Tests for the content-addressed result store and its serializers."""

import json

import numpy as np
import pytest

from repro.mc.results import McPoint, TrialResult
from repro.mc.sweep import FrequencySweep
from repro.store import ResultStore, canonical_json, decode, encode, \
    key_hash
from repro.store.serialize import NDARRAY_TAG, json_hash
from repro.timing.cdf import EndpointCdfs
from repro.timing.characterize import (
    AluCharacterization,
    CharacterizationConfig,
)


def _trial(finished=True, correct=True, error=0.25, faults=2):
    return TrialResult(finished=finished, correct=correct,
                       error_value=error, relative_error=error / 4,
                       fault_count=faults, kernel_cycles=1234,
                       alu_cycles=600, cycles=1300,
                       abort_reason=None if finished else "budget")


def _point(label="p", n=3):
    point = McPoint(label=label,
                    config={"frequency_hz": np.float64(7.25e8)})
    for index in range(n):
        point.add(_trial(finished=index % 2 == 0, error=0.1 * index,
                         faults=index))
    return point


def _key(seed=0, **extra):
    key = {"kind": "mc_point", "schema": McPoint.SCHEMA,
           "experiment": "test", "scale": None, "seed": seed,
           "stream": "serial", "config": {"vdd": 0.7}}
    key.update(extra)
    return key


class TestEncoding:
    def test_array_round_trip_preserves_dtype(self):
        for dtype in (np.float64, np.float32, np.uint64, np.int32,
                      np.bool_):
            array = np.array([[0, 1], [2, 3]], dtype=dtype)
            back = decode(encode(array))
            assert np.array_equal(back, array)
            assert back.dtype == array.dtype

    def test_float_bits_survive(self):
        array = np.array([0.1, 1e-308, np.pi, np.inf], dtype=np.float64)
        back = decode(encode(array))
        assert back.tobytes() == array.tobytes()

    def test_numpy_scalars_keep_their_type(self):
        back = decode(encode({"f": np.float32(1.5), "i": np.int64(-7)}))
        assert type(back["f"]) is np.float32 and back["f"] == 1.5
        assert type(back["i"]) is np.int64 and back["i"] == -7

    def test_tuples_become_lists(self):
        assert decode(encode((1, (2, 3)))) == [1, [2, 3]]

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            encode(object())
        with pytest.raises(TypeError):
            encode({1: "non-string key"})

    def test_canonical_json_is_order_independent(self):
        a = {"x": 1, "y": [1, 2], "z": {"a": 0.5}}
        b = {"z": {"a": 0.5}, "y": [1, 2], "x": 1}
        assert canonical_json(a) == canonical_json(b)
        assert key_hash(a) == key_hash(b)

    def test_hash_differs_on_content(self):
        assert key_hash({"x": 1}) != key_hash({"x": 2})


class TestMcJsonRoundTrip:
    def test_trial_result(self):
        trial = _trial(finished=False)
        assert TrialResult.from_json(trial.to_json()) == trial

    def test_trial_rejects_unknown_fields(self):
        payload = _trial().to_json()
        payload["bogus"] = 1
        with pytest.raises(ValueError):
            TrialResult.from_json(payload)

    def test_mc_point_lossless(self):
        point = _point()
        back = McPoint.from_json(point.to_json())
        assert back == point
        assert back.summary() == point.summary()

    def test_mc_point_json_native(self):
        # The body must survive a real JSON text round-trip.
        payload = json.loads(json.dumps(_point().to_json()))
        assert McPoint.from_json(payload) == _point()

    def test_frequency_sweep_lossless(self):
        sweep = FrequencySweep(
            kernel_name="median",
            frequencies_hz=[7.0e8, 7.1e8],
            points=[_point("a"), _point("b")],
            sta_limit_hz=7.071e8,
            config={"vdd": 0.7, "sigma_v": 0.01})
        back = FrequencySweep.from_json(
            json.loads(json.dumps(sweep.to_json())))
        assert back == sweep
        assert back.rows() == sweep.rows()


class TestCharacterizationJson:
    def _characterization(self, seed=5):
        rng = np.random.default_rng(seed)
        config = CharacterizationConfig(n_cycles_per_instr=16,
                                        grid_points=64)
        cdfs = {}
        worst = 1400.0
        for mnemonic in ("l.add", "l.mul"):
            critical = rng.uniform(600.0, 1500.0, size=(16, 32))
            cdfs[mnemonic] = EndpointCdfs.from_critical(
                mnemonic, config.vdd, critical)
        return AluCharacterization(config, cdfs, worst)

    def test_round_trip_bit_identical(self):
        char = self._characterization()
        back = AluCharacterization.from_json(
            json.loads(json.dumps(char.to_json())))
        assert back.config == char.config
        assert back.worst_sta_period_ps == char.worst_sta_period_ps
        assert back.mnemonics == char.mnemonics
        for mnemonic in char.mnemonics:
            original, rebuilt = char.cdfs[mnemonic], back.cdfs[mnemonic]
            assert np.array_equal(rebuilt.critical_rows,
                                  original.critical_rows)
            assert np.array_equal(rebuilt.critical_sorted,
                                  original.critical_sorted)
            assert np.array_equal(rebuilt.row_max_sorted,
                                  original.row_max_sorted)
        assert back.grid.mnemonics == char.grid.mnemonics == ("l.add",
                                                              "l.mul")
        assert np.array_equal(back.grid.probs, char.grid.probs)
        assert np.array_equal(back.grid.p_any, char.grid.p_any)


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        point = _point()
        sha = store.put(_key(), point, label="unit-a")
        assert store.get(_key()) == point
        assert store.contains(_key())
        assert sha == store.key_of(_key())

    def test_miss_on_unknown_key(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get(_key()) is None
        assert not store.contains(_key())

    def test_distinct_keys_distinct_entries(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(_key(seed=1), _point("a"))
        store.put(_key(seed=2), _point("b", n=5))
        assert store.get(_key(seed=1)).label == "a"
        assert store.get(_key(seed=2)).label == "b"

    def test_put_is_idempotent_overwrite(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(_key(), _point("old"))
        store.put(_key(), _point("new"))
        assert store.get(_key()).label == "new"
        assert len(store.ls()) == 1

    def test_corrupted_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(_key(), _point())
        path = store._object_path(store.key_of(_key()))
        path.write_text("{ not json")
        assert store.get(_key()) is None
        # The poison was moved to quarantine (young → kept as
        # forensic evidence across a default gc); the live index is
        # already clean.
        assert list(store.quarantine_dir.iterdir())
        removed, _ = store.gc()
        assert removed == 0
        assert store.ls() == []

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(_key(), _point())
        path = store._object_path(store.key_of(_key()))
        path.write_text(path.read_text()[:40])
        assert store.get(_key()) is None

    def test_tampered_key_reads_as_miss(self, tmp_path):
        # An entry whose embedded key no longer matches its address
        # (e.g. edited on disk) must never be returned.
        store = ResultStore(tmp_path / "store")
        store.put(_key(), _point())
        path = store._object_path(store.key_of(_key()))
        envelope = json.loads(path.read_text())
        envelope["key"]["seed"] = 999
        path.write_text(json.dumps(envelope))
        assert store.get(_key()) is None
        assert not path.exists()
        assert list(store.quarantine_dir.iterdir())

    def test_stale_schema_never_served_and_gc_reclaims(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        old_key = _key(schema=McPoint.SCHEMA - 1)
        # Simulate an entry written by an older code version: the
        # envelope is self-consistent under the old schema key.
        store.put(_key(), _point())
        path = store._object_path(store.key_of(_key()))
        envelope = json.loads(path.read_text())
        envelope["key"]["schema"] = McPoint.SCHEMA - 1
        envelope["sha256"] = store.key_of(old_key)
        old_path = store._object_path(store.key_of(old_key))
        old_path.parent.mkdir(parents=True, exist_ok=True)
        old_path.write_text(json.dumps(envelope))
        path.unlink()
        # Current-schema lookups miss it; the artifact body also
        # refuses to decode under the stale version.
        assert store.get(_key()) is None
        assert store.get(old_key) is None
        removed, _ = store.gc()
        assert removed >= 1
        assert not old_path.exists()

    def test_gc_all_wipes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(_key(seed=1), _point())
        store.put(_key(seed=2), _point())
        removed, freed = store.gc(remove_all=True)
        assert removed == 2 and freed > 0
        assert store.ls() == []

    def test_gc_reclaims_abandoned_temp_files_only(self, tmp_path):
        import os
        import time as time_module
        store = ResultStore(tmp_path / "store")
        store.put(_key(), _point())
        stray = store.objects / "ab"
        stray.mkdir(exist_ok=True)
        fresh = stray / ".tmp-inflight"
        fresh.write_text("a live writer owns me")
        abandoned = stray / ".tmp-killed"
        abandoned.write_text("partial")
        old = time_module.time() - 2 * ResultStore.TEMP_GRACE_S
        os.utime(abandoned, (old, old))
        removed, _ = store.gc()
        assert removed == 1
        assert fresh.exists() and not abandoned.exists()
        assert store.get(_key()) is not None

    def test_stale_native_cache_dir_is_ignored(self, tmp_path):
        """A kernel cache left by the retired native backend is inert.

        Older stores kept compiled libraries in ``<root>/native/``;
        ``ls`` and ``gc`` walk only ``objects/``, so the directory is
        neither listed, read nor removed.
        """
        store = ResultStore(tmp_path / "store")
        store.put(_key(), _point())
        stale = store.root / "native" / "librepro-kernels-0.so"
        stale.parent.mkdir()
        stale.write_bytes(b"\x7fELF not a store object")
        assert len(store.ls()) == 1
        assert store.gc() == (0, 0)
        assert store.gc(remove_all=True)[0] == 1
        assert stale.exists()

    def test_gc_by_kind(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(_key(seed=1), _point())
        char = TestCharacterizationJson()._characterization()
        char_key = {"kind": "alu_characterization",
                    "schema": AluCharacterization.SCHEMA,
                    "alu": ["test"], "config": {"n": 16}}
        store.put(char_key, char)
        removed, _ = store.gc(remove_all=True, kinds=("mc_point",))
        assert removed == 1
        assert store.get(_key(seed=1)) is None
        assert store.get(char_key) is not None

    def test_contains_is_envelope_level(self, tmp_path):
        # contains() validates the envelope without decoding the
        # artifact body; a corrupted body is caught by get().
        store = ResultStore(tmp_path / "store")
        store.put(_key(), _point())
        path = store._object_path(store.key_of(_key()))
        envelope = json.loads(path.read_text())
        envelope["artifact"]["trials"] = "garbage"
        path.write_text(json.dumps(envelope))
        assert store.contains(_key())
        assert store.get(_key()) is None

    def test_characterization_artifact_kind(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        char = TestCharacterizationJson()._characterization()
        key = {"kind": "alu_characterization",
               "schema": AluCharacterization.SCHEMA,
               "alu": ["test"], "config": {"n": 16}}
        store.put(key, char, label="char")
        back = store.get(key)
        assert back is not None
        assert np.array_equal(back.cdfs["l.mul"].critical_rows,
                              char.cdfs["l.mul"].critical_rows)


class TestObjectScanLs:
    """``ls`` lists straight from the objects directory."""

    def test_ls_lists_objects_with_no_index_step(self, tmp_path):
        # An envelope dropped into objects/ by hand -- no put(), no
        # index file anywhere -- is listed like any other entry.
        store = ResultStore(tmp_path / "store")
        store.put(_key(seed=1), _point("a"), label="put")
        source = store._object_path(store.key_of(_key(seed=1)))
        envelope = json.loads(source.read_text())
        envelope["key"] = _key(seed=2)
        envelope["sha256"] = store.key_of(_key(seed=2))
        envelope["label"] = "by-hand"
        target = store._object_path(envelope["sha256"])
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(envelope))
        entries = store.ls()
        # Neither put() nor ls() wrote anything beside the objects.
        assert sorted(path.name for path in store.root.iterdir()) == \
            ["objects"]
        assert {entry.label for entry in entries} == {"put", "by-hand"}
        assert {entry.sha256 for entry in entries} == \
            {store.key_of(_key(seed=1)), store.key_of(_key(seed=2))}
        assert all(entry.kind == "mc_point" for entry in entries)

    def test_ls_skips_unlistable_objects_without_quarantine(self,
                                                           tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(_key(seed=1), _point(), label="kept")
        store.put(_key(seed=2), _point(), label="torn")
        store.put(_key(seed=3), _point(), label="mismatched")
        torn = store._object_path(store.key_of(_key(seed=2)))
        torn.write_text(torn.read_text()[:40])  # killed mid-write
        # A self-inconsistent object: its embedded key hashes to some
        # other name than the one it sits under.
        mismatched = store._object_path(store.key_of(_key(seed=3)))
        envelope = json.loads(mismatched.read_text())
        envelope["key"]["seed"] = 99
        mismatched.write_text(json.dumps(envelope))
        temp = store.objects / "ab" / ".tmp-inflight"
        temp.parent.mkdir(exist_ok=True)
        temp.write_text(json.dumps(envelope))
        assert [entry.label for entry in store.ls()] == ["kept"]
        # Listing is read-only: everything it skipped is still there.
        assert torn.exists() and mismatched.exists() and temp.exists()
        assert not store.quarantine_dir.exists()

    def test_ls_orders_by_created_unix(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for seed, created in ((1, 3000.0), (2, 1000.0), (3, 2000.0)):
            _aged_put(store, _key(seed=seed), _point(), f"s{seed}",
                      created)
        entries = store.ls()
        assert [entry.label for entry in entries] == ["s2", "s3", "s1"]
        assert [entry.created_unix for entry in entries] == \
            [1000.0, 2000.0, 3000.0]

    def test_ls_reports_on_disk_n_bytes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        sha = store.put(_key(), _point(), label="grown")
        path = store._object_path(sha)
        envelope = json.loads(path.read_text())
        envelope["label"] = "grown" * 100
        path.write_text(json.dumps(envelope, indent=2))
        (entry,) = store.ls()
        assert entry.n_bytes == path.stat().st_size

    def test_ls_matches_between_fs_and_http(self, tmp_path):
        import threading
        from repro.fabric import serve
        store = ResultStore(tmp_path / "store")
        for seed in range(3):
            _aged_put(store, _key(seed=seed), _point(f"p{seed}"),
                      f"p{seed}", 1000.0 + seed)
        torn = store._object_path(store.key_of(_key(seed=1)))
        torn.write_text("{ torn")
        svc = serve(store.root)
        thread = threading.Thread(target=svc.serve_forever, daemon=True)
        thread.start()
        host, port = svc.server_address
        try:
            remote = ResultStore.remote(f"http://{host}:{port}",
                                        spool_dir=tmp_path / "spool",
                                        timeout_s=5.0)
            listed = remote.ls()
        finally:
            svc.shutdown()
            svc.server_close()
        assert listed == store.ls()
        assert [entry.label for entry in listed] == ["p0", "p2"]


class TestFaultHardening:
    """Injected store faults: retry and quarantine."""

    @pytest.fixture(autouse=True)
    def _clean_plane(self, monkeypatch):
        from repro import faults
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_FAULT_LOG", raising=False)
        faults.reset()
        yield
        faults.reset()

    def test_transient_object_write_oserror_is_retried(self, tmp_path,
                                                       caplog):
        from repro import faults
        import logging
        faults.configure("store.object_write:oserror@after=1")
        store = ResultStore(tmp_path / "store")
        with caplog.at_level(logging.WARNING, "repro.store"):
            store.put(_key(), _point(), label="retried")
        assert any("retrying" in record.message
                   for record in caplog.records)
        assert store.get(_key()) is not None

    def test_persistent_oserror_exhausts_the_retry_budget(self,
                                                          tmp_path):
        from repro import faults
        faults.configure("store.object_write:oserror")  # every hit
        store = ResultStore(tmp_path / "store")
        with pytest.raises(OSError, match="injected"):
            store.put(_key(), _point())

    def test_torn_object_write_quarantines_and_heals(self, tmp_path,
                                                     caplog):
        from repro import faults
        import logging
        faults.configure("store.object_write:torn@after=1")
        store = ResultStore(tmp_path / "store")
        store.put(_key(), _point(), label="torn")
        with caplog.at_level(logging.WARNING, "repro.store"):
            assert store.get(_key()) is None  # detected, not served
        assert any("quarantined" in record.message
                   for record in caplog.records)
        assert list(store.quarantine_dir.iterdir())  # evidence kept
        store.put(_key(), _point(), label="healed")  # hit 2: clean
        assert store.get(_key()) is not None

    @pytest.mark.parametrize("kind", ["mc_point", "alu_characterization"])
    def test_stored_body_hashes_directly_to_its_checksum(self, tmp_path,
                                                         kind):
        """A body read back from disk needs no ``encode`` walk to hash.

        Both bodies carry ``__ndarray__`` tags (the point's numpy
        frequency, the characterization's arrays): the direct hash of
        the parsed body equals ``key_hash`` of the body before ``put``
        and the stored checksum.
        """
        if kind == "mc_point":
            key, artifact = _key(), _point()
        else:
            key = _char_key()
            artifact = TestCharacterizationJson()._characterization()
        body = artifact.to_json()
        store = ResultStore(tmp_path / "store")
        store.put(key, artifact)
        path = store._object_path(store.key_of(key))
        envelope = json.loads(path.read_text())
        assert NDARRAY_TAG in json.dumps(envelope["artifact"])
        assert json_hash(envelope["artifact"]) == key_hash(body) \
            == envelope["body_sha256"]
        assert store.get(key) is not None

    def test_body_checksum_mismatch_quarantines(self, tmp_path, caplog):
        import logging
        store = ResultStore(tmp_path / "store")
        store.put(_key(), _point())
        path = store._object_path(store.key_of(_key()))
        envelope = json.loads(path.read_text())
        envelope["artifact"]["__rot__"] = 1  # silent bit-rot
        path.write_text(json.dumps(envelope, separators=(",", ":")))
        with caplog.at_level(logging.WARNING, "repro.store"):
            assert store.get(_key()) is None
        assert any("checksum" in record.message
                   for record in caplog.records)

    def test_gc_reclaims_quarantined_objects(self, tmp_path):
        import os
        import time as time_module
        from repro import faults
        faults.configure("store.object_write:torn@after=1")
        store = ResultStore(tmp_path / "store")
        store.put(_key(), _point())
        assert store.get(_key()) is None  # quarantined
        faults.reset()
        # Young quarantine is forensic evidence: the default pass
        # keeps it until it outlives the grace period.
        removed, _ = store.gc()
        assert removed == 0
        assert list(store.quarantine_dir.iterdir())
        old = time_module.time() - 2 * ResultStore.TEMP_GRACE_S
        for path in store.quarantine_dir.iterdir():
            os.utime(path, (old, old))
        removed, freed = store.gc()
        assert removed == 1
        assert freed > 0
        assert not list(store.quarantine_dir.iterdir())

    def test_gc_all_empties_quarantine_regardless_of_age(self,
                                                         tmp_path):
        from repro import faults
        faults.configure("store.object_write:torn@after=1")
        store = ResultStore(tmp_path / "store")
        store.put(_key(), _point())
        assert store.get(_key()) is None  # quarantined, still young
        faults.reset()
        removed, _ = store.gc(remove_all=True)
        assert removed == 1
        assert not list(store.quarantine_dir.iterdir())

    def test_delete_removes_entry_and_index_line(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(_key(seed=1), _point(), label="doomed")
        store.put(_key(seed=2), _point(), label="kept")
        assert store.delete(_key(seed=1))
        assert store.get(_key(seed=1)) is None
        assert not store.contains(_key(seed=1))
        assert {entry.label for entry in store.ls()} == {"kept"}
        assert not store.delete(_key(seed=1))  # already gone

    def test_no_fsync_escape_hatch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_NO_FSYNC", "1")
        store = ResultStore(tmp_path / "store")
        store.put(_key(), _point(), label="fast")
        assert store.get(_key()) is not None


def _aged_put(store, key, artifact, label, created_unix):
    """put() an entry, then pin its created_unix deterministically."""
    sha = store.put(key, artifact, label=label)
    path = store._object_path(sha)
    envelope = json.loads(path.read_text())
    envelope["created_unix"] = created_unix
    path.write_text(json.dumps(envelope, separators=(",", ":")))
    return sha


class TestLruEviction:
    def test_evicts_oldest_first_and_stops_at_the_cap(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for index in range(6):
            _aged_put(store, _key(seed=index), _point(f"p{index}"),
                      f"p{index}", 1000.0 + index)
        entries = store.ls()
        total = sum(entry.n_bytes for entry in entries)
        per_entry = total // 6
        cap = total - per_entry  # one entry must go
        removed, freed = store.gc(max_bytes=cap)
        assert removed == 1 and freed > 0
        survivors = {entry.label for entry in store.ls()}
        # Exactly the oldest entry was evicted -- never below the cap.
        assert survivors == {f"p{index}" for index in range(1, 6)}
        assert sum(entry.n_bytes for entry in store.ls()) <= cap
        # Evicted entries read as misses; survivors stay hits.
        assert store.get(_key(seed=0)) is None
        assert store.get(_key(seed=5)) is not None

    def test_cap_smaller_than_everything_empties_the_store(self,
                                                           tmp_path):
        store = ResultStore(tmp_path / "store")
        for index in range(3):
            _aged_put(store, _key(seed=index), _point(f"p{index}"),
                      f"p{index}", 1000.0 + index)
        removed, _ = store.gc(max_bytes=0)
        assert removed == 3
        assert store.ls() == []

    def test_generous_cap_evicts_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for index in range(3):
            store.put(_key(seed=index), _point(f"p{index}"))
        removed, freed = store.gc(max_bytes=1 << 40)
        assert removed == 0 and freed == 0
        assert len(store.ls()) == 3

    def test_dead_data_reclaim_runs_before_the_lru_pass(self, tmp_path):
        # A corrupted entry's bytes count toward nothing: reclaiming it
        # must happen first so live entries are not evicted in its
        # stead.
        store = ResultStore(tmp_path / "store")
        for index in range(3):
            _aged_put(store, _key(seed=index), _point(f"p{index}"),
                      f"p{index}", 1000.0 + index)
        live_total = sum(entry.n_bytes for entry in store.ls())
        dead = _aged_put(store, _key(seed=99), _point("dead"), "dead",
                         999.0)
        store._object_path(dead).write_text("{ not json")
        removed, _ = store.gc(max_bytes=live_total)
        assert removed == 1  # the corrupted entry only
        assert {entry.label for entry in store.ls()} == \
            {"p0", "p1", "p2"}

    def test_cap_enforced_under_concurrent_put(self, tmp_path):
        # Entries put while gc runs may or may not be seen by its scan;
        # either way gc must not crash, must enforce the cap over what
        # it saw, and late writes must stay retrievable.
        import threading
        store = ResultStore(tmp_path / "store")
        for index in range(8):
            _aged_put(store, _key(seed=index), _point(f"p{index}"),
                      f"p{index}", 1000.0 + index)
        base_total = sum(entry.n_bytes for entry in store.ls())
        stop = threading.Event()
        written = []

        def writer():
            seed = 100
            while not stop.is_set():
                written.append(seed)
                store.put(_key(seed=seed), _point(f"w{seed}"),
                          label=f"w{seed}")
                seed += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            removed, _ = store.gc(max_bytes=base_total // 2)
        finally:
            stop.set()
            thread.join()
        assert removed >= 4  # at least half the aged entries went
        # The newest aged entry survived every older one.
        survivors = {entry.label for entry in store.ls()
                     if entry.label.startswith("p")}
        if survivors:
            assert "p7" in survivors
        # Concurrent writes were never corrupted: each is either fully
        # present or fully evicted, and the last one is retrievable.
        last = written[-1]
        final = store.put(_key(seed=last), _point(f"w{last}"),
                          label=f"w{last}")
        assert store.get(_key(seed=last)) is not None
        assert store._object_path(final).exists()


def _char_key(seed=0):
    return {"kind": "alu_characterization",
            "schema": AluCharacterization.SCHEMA,
            "experiment": "test", "scale": None, "seed": seed,
            "stream": "dta", "config": {"vdd": 0.7}}


class TestPinnedEviction:
    """gc --max-bytes with pin_kinds: recompute-cost-weighted LRU."""

    PINS = ("alu_characterization",)

    def _mixed_store(self, tmp_path):
        """Two old pinned characterizations + four newer cheap points."""
        store = ResultStore(tmp_path / "store")
        char = TestCharacterizationJson()._characterization()
        for index in range(2):
            _aged_put(store, _char_key(seed=index), char,
                      f"char{index}", 500.0 + index)
        for index in range(4):
            _aged_put(store, _key(seed=index), _point(f"p{index}"),
                      f"p{index}", 1000.0 + index)
        return store

    def test_pinned_kind_evicted_last_despite_age(self, tmp_path):
        # The pinned entries are the *oldest* in the store; a plain
        # LRU pass would evict them first.  Pinning must sacrifice
        # every cheap point before touching a characterization.
        store = self._mixed_store(tmp_path)
        pinned_total = sum(entry.n_bytes for entry in store.ls()
                           if entry.label.startswith("char"))
        removed, _ = store.gc(max_bytes=pinned_total,
                              pin_kinds=self.PINS)
        assert removed == 4  # all points, no characterization
        assert {entry.label for entry in store.ls()} == \
            {"char0", "char1"}
        assert store.get(_char_key(seed=0)) is not None

    def test_cap_stays_hard_over_pinned_entries(self, tmp_path):
        # When the pinned entries alone exceed the cap, they are
        # evicted too -- oldest first -- until the store fits.
        store = self._mixed_store(tmp_path)
        entries = {entry.label: entry.n_bytes for entry in store.ls()}
        cap = entries["char1"]  # room for exactly one characterization
        removed, _ = store.gc(max_bytes=cap, pin_kinds=self.PINS)
        assert removed == 5  # four points + the older characterization
        assert {entry.label for entry in store.ls()} == {"char1"}

    def test_cap_smaller_than_largest_pinned_entry(self, tmp_path):
        # The edge the CLI documents: a cap below the size of a single
        # pinned entry empties the store rather than overshooting it.
        store = ResultStore(tmp_path / "store")
        char = TestCharacterizationJson()._characterization()
        sha = _aged_put(store, _char_key(seed=0), char, "char", 500.0)
        size = store._object_path(sha).stat().st_size
        removed, freed = store.gc(max_bytes=size - 1,
                                  pin_kinds=self.PINS)
        assert removed == 1 and freed >= size
        assert store.ls() == []
        assert store.get(_char_key(seed=0)) is None

    def test_unpinned_default_keeps_plain_lru_order(self, tmp_path):
        # Without pin_kinds the characterizations are ordinary LRU
        # fodder: oldest goes first even though it is pinned-kind.
        store = self._mixed_store(tmp_path)
        total = sum(entry.n_bytes for entry in store.ls())
        oldest = min(store.ls(), key=lambda entry: entry.created_unix)
        removed, _ = store.gc(max_bytes=total - 1)
        assert removed == 1
        assert oldest.label == "char0"
        assert "char0" not in {entry.label for entry in store.ls()}


class TestQuarantineByteCap:
    """Quarantine bytes count toward --max-bytes and go first."""

    def _poisoned_store(self, tmp_path):
        """Three live aged entries + one quarantined object."""
        from repro import faults
        store = ResultStore(tmp_path / "store")
        for index in range(3):
            _aged_put(store, _key(seed=index), _point(f"p{index}"),
                      f"p{index}", 1000.0 + index)
        faults.configure("store.object_write:torn@times=1")
        store.put(_key(seed=99), _point("poison"))
        faults.reset()
        assert store.get(_key(seed=99)) is None  # quarantined
        quarantined = list(store.quarantine_dir.iterdir())
        assert len(quarantined) == 1
        return store, quarantined[0]

    def test_quarantine_counts_toward_the_cap_and_goes_first(
            self, tmp_path):
        store, poison = self._poisoned_store(tmp_path)
        live_total = sum(path.stat().st_size
                         for path in store.objects.glob("*/*.json"))
        # The cap fits every live entry but not the quarantine bytes
        # on top: the quarantined object is sacrificed, no live entry
        # is evicted in its stead.
        removed, freed = store.gc(max_bytes=live_total)
        assert removed == 1
        assert freed >= poison.stat().st_size if poison.exists() \
            else freed > 0
        assert not list(store.quarantine_dir.iterdir())
        assert {entry.label for entry in store.ls()} == \
            {"p0", "p1", "p2"}

    def test_quarantine_evicted_oldest_first(self, tmp_path):
        import os
        import time as time_module
        from repro import faults
        store = ResultStore(tmp_path / "store")
        faults.configure("store.object_write:torn")
        for index in range(2):
            store.put(_key(seed=index), _point())
            assert store.get(_key(seed=index)) is None
        faults.reset()
        old, new = sorted(store.quarantine_dir.iterdir(),
                          key=lambda p: p.name)
        # Both inside the forensic grace window -- only the byte-cap
        # pass may touch them, oldest mtime first.
        now = time_module.time()
        os.utime(old, (now - 20.0, now - 20.0))
        os.utime(new, (now - 10.0, now - 10.0))
        total = sum(p.stat().st_size for p in (old, new))
        removed, _ = store.gc(max_bytes=total - 1)
        assert removed == 1
        assert not old.exists() and new.exists()

    def test_generous_cap_keeps_young_quarantine(self, tmp_path):
        store, poison = self._poisoned_store(tmp_path)
        removed, _ = store.gc(max_bytes=1 << 40)
        assert removed == 0
        assert poison.exists()


class TestRetryPolicy:
    """Exponential backoff with deterministic seeded jitter."""

    def test_defaults(self, monkeypatch):
        from repro.store.retry import RetryPolicy
        monkeypatch.delenv("REPRO_STORE_RETRIES", raising=False)
        monkeypatch.delenv("REPRO_STORE_BACKOFF_S", raising=False)
        policy = RetryPolicy.from_env()
        assert policy.attempts == 3
        assert policy.backoff_s == 0.02

    def test_env_overrides_and_bad_values_ignored(self, monkeypatch):
        from repro.store.retry import RetryPolicy
        monkeypatch.setenv("REPRO_STORE_RETRIES", "7")
        monkeypatch.setenv("REPRO_STORE_BACKOFF_S", "0.5")
        policy = RetryPolicy.from_env()
        assert policy.attempts == 7 and policy.backoff_s == 0.5
        monkeypatch.setenv("REPRO_STORE_RETRIES", "banana")
        monkeypatch.setenv("REPRO_STORE_BACKOFF_S", "-3")
        policy = RetryPolicy.from_env()
        assert policy.attempts == 3      # unparsable -> default
        assert policy.backoff_s == 0.0   # negative -> clamped

    def test_backoff_is_exponential_and_jittered(self):
        from repro.store.retry import RetryPolicy
        policy = RetryPolicy(attempts=5, backoff_s=0.01, seed=0)
        delays = [policy.delay_s("op", attempt) for attempt in range(4)]
        for attempt, delay in enumerate(delays):
            slot = 0.01 * (1 << attempt)
            assert 0.5 * slot <= delay < 1.5 * slot
        # Deterministic: the same (seed, key, attempt) sleeps
        # identically; a different key de-correlates.
        assert delays == [policy.delay_s("op", attempt)
                          for attempt in range(4)]
        assert policy.delay_s("other", 0) != delays[0]

    def test_run_retries_then_reraises(self):
        from repro.store.retry import RetryPolicy
        policy = RetryPolicy(attempts=3, backoff_s=0.0)
        calls = []

        def flaky():
            calls.append(1)
            raise OSError("always")

        with pytest.raises(OSError, match="always"):
            policy.run("flaky", flaky, sleep=lambda _s: None)
        assert len(calls) == 3

    def test_run_succeeds_after_transient_failure(self):
        from repro.store.retry import RetryPolicy
        policy = RetryPolicy(attempts=3, backoff_s=0.0)
        state = {"n": 0}

        def once():
            state["n"] += 1
            if state["n"] == 1:
                raise OSError("transient")
            return "ok"

        slept = []
        assert policy.run("once", once,
                          sleep=slept.append) == "ok"
        assert len(slept) == 1

    def test_store_respects_env_budget(self, tmp_path, monkeypatch):
        # REPRO_STORE_RETRIES=1 -> a single transient failure is fatal.
        from repro import faults
        monkeypatch.setenv("REPRO_STORE_RETRIES", "1")
        faults.reset()
        faults.configure("store.object_write:oserror@times=1")
        store = ResultStore(tmp_path / "store")
        try:
            with pytest.raises(OSError, match="injected"):
                store.put(_key(), _point())
        finally:
            faults.reset()


class TestFsBackend:
    """Byte-level backend primitives, incl. conditional PUT."""

    def test_round_trip_and_delete(self, tmp_path):
        from repro.store.backend import FsBackend
        backend = FsBackend(tmp_path / "b")
        assert backend.read("objects/ab/x.json") is None
        assert backend.write("objects/ab/x.json", b"payload")
        assert backend.read("objects/ab/x.json") == b"payload"
        assert backend.delete("objects/ab/x.json")
        assert not backend.delete("objects/ab/x.json")

    def test_put_if_absent_exactly_one_winner(self, tmp_path):
        from repro.store.backend import FsBackend
        backend = FsBackend(tmp_path / "b")
        first = backend.write("leases/b0/g000001", b"owner-a",
                              if_absent=True)
        second = backend.write("leases/b0/g000001", b"owner-b",
                               if_absent=True)
        assert first and not second
        assert backend.read("leases/b0/g000001") == b"owner-a"

    def test_put_if_absent_race_across_processes(self, tmp_path):
        # N concurrent claimants, one name: exactly one os.link wins.
        import multiprocessing
        from repro.store.backend import FsBackend
        root = tmp_path / "b"
        FsBackend(root)

        def claim(index, results):
            backend = FsBackend(root)
            won = backend.write("leases/b0/g000001",
                                f"owner-{index}".encode(),
                                if_absent=True)
            results.put((index, won))

        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        procs = [ctx.Process(target=claim, args=(index, results))
                 for index in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        outcomes = dict(results.get() for _ in procs)
        winners = [index for index, won in outcomes.items() if won]
        assert len(winners) == 1
        body = FsBackend(root).read("leases/b0/g000001")
        assert body == f"owner-{winners[0]}".encode()

    def test_list_by_prefix_skips_temp_files(self, tmp_path):
        from repro.store.backend import FsBackend
        backend = FsBackend(tmp_path / "b")
        backend.write("objects/aa/1.json", b"x")
        backend.write("leases/b0/g000001", b"y")
        (tmp_path / "b" / "objects" / "aa" / ".tmp-zzz").write_text("t")
        names = {stat.name for stat in backend.list("objects/")}
        assert names == {"objects/aa/1.json"}
        assert {stat.name for stat in backend.list()} == \
            {"objects/aa/1.json", "leases/b0/g000001"}

    def test_bad_names_rejected(self, tmp_path):
        from repro.store.backend import FsBackend, validate_name
        backend = FsBackend(tmp_path / "b")
        for bad in ("", "/abs", "../escape", "a/../../b"):
            with pytest.raises(ValueError):
                backend.write(bad, b"x")
        assert validate_name("objects/ab/x.json") == "objects/ab/x.json"

    def test_ping_reports_object_count(self, tmp_path):
        from repro.store.backend import FsBackend
        backend = FsBackend(tmp_path / "b")
        ping = backend.ping()
        assert ping["ok"] and ping["backend"] == "fs"
        assert ping["objects"] == 0
