"""Unit tests for the telemetry plane (spans, sinks, export, stats)."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro import faults, obs
from repro.obs import plane as obs_plane


@pytest.fixture(autouse=True)
def clean_plane():
    obs.reset()
    yield
    obs.reset()


def read_lines(path):
    return [json.loads(line)
            for line in path.read_text().splitlines()]


class TestDisabledPath:
    def test_off_by_default(self):
        assert not obs.enabled()
        assert obs.current_span_id() is None

    def test_span_is_shared_noop(self):
        first = obs.span("a", x=1)
        second = obs.span("b")
        assert first is second  # one shared null object, no allocation
        with first as rec:
            assert rec.set(outcome="ok") is rec
        assert obs.current_span_id() is None

    def test_counter_and_flush_are_noops(self, tmp_path):
        obs.counter("n", 3)
        obs.flush()  # no sink configured: must not raise or write
        assert list(tmp_path.iterdir()) == []


class TestRecording:
    def test_span_records_and_nests(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        with obs.span("outer", kind="x") as outer:
            outer_id = obs.current_span_id()
            assert outer_id is not None
            with obs.span("inner"):
                inner_id = obs.current_span_id()
                assert inner_id != outer_id
            outer.set(late=True)
        assert obs.current_span_id() is None
        obs.shutdown()
        records = obs.read_trace(trace)
        spans = {r["name"]: r for r in obs.spans(records)}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert "parent" not in spans["outer"]
        assert spans["outer"]["a"] == {"kind": "x", "late": True}
        assert spans["outer"]["dur"] >= spans["inner"]["dur"] >= 0
        assert spans["outer"]["pid"] == os.getpid()

    def test_exception_annotates_and_propagates(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("nope")
        assert obs.current_span_id() is None  # stack unwound
        obs.shutdown()
        (record,) = obs.spans(obs.read_trace(trace))
        assert record["a"]["error"] == "ValueError"

    def test_counters_snapshot_cumulatively(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        obs.counter("hits")
        obs.counter("hits")
        obs.counter("bytes", 100.0)
        obs.flush()
        obs.counter("hits")
        obs.flush()
        obs.flush()  # clean: no third snapshot
        obs.shutdown()
        snapshots = [r for r in obs.read_trace(trace)
                     if r["t"] == "ctr"]
        assert len(snapshots) == 2
        assert snapshots[0]["counters"] == {"hits": 2, "bytes": 100.0}
        assert snapshots[1]["counters"] == {"hits": 3, "bytes": 100.0}
        # Totals keep only the latest snapshot per pid.
        assert obs.counter_totals(obs.read_trace(trace)) == {
            "hits": 3, "bytes": 100.0}

    def test_meta_record_anchors_timebase(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        with obs.span("x"):
            pass
        obs.shutdown()
        meta = [r for r in obs.read_trace(trace) if r["t"] == "meta"]
        assert len(meta) == 1
        assert meta[0]["pid"] == os.getpid()
        assert meta[0]["unix"] > 0 and meta[0]["mono"] > 0

    def test_configure_clears_stale_run(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("stale\n")
        (tmp_path / "t.jsonl.pid-99999").write_text("stale part\n")
        obs.configure(trace)
        with obs.span("fresh"):
            pass
        obs.shutdown()
        names = {r["name"] for r in obs.spans(obs.read_trace(trace))}
        assert names == {"fresh"}

    def test_configure_none_disables(self, tmp_path):
        obs.configure(tmp_path / "t.jsonl")
        assert obs.enabled()
        obs.configure(None)
        assert not obs.enabled()


class TestRobustness:
    def test_unwritable_sink_disables_not_raises(self, tmp_path):
        # Configuring under a path whose parent cannot be created must
        # leave the plane off and the program running.
        target = tmp_path / "block"
        target.write_text("a file, not a directory")
        obs.configure(target / "t.jsonl")
        assert not obs.enabled()
        with obs.span("still fine"):
            pass

    def test_write_failure_mid_run_degrades(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        with obs.span("before"):
            pass
        handle = obs_plane._HANDLE
        assert handle is not None
        handle.close()  # simulate the sink dying under the plane
        with obs.span("after"):
            pass  # swallowed: telemetry never changes exit codes
        assert not obs.enabled()

    def test_torn_last_line_is_skipped(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        with obs.span("whole"):
            pass
        obs.shutdown()
        with open(trace, "a") as f:
            f.write('{"t":"span","name":"torn","pid":1,')  # killed
        records = obs.read_trace(trace)
        assert {r["name"] for r in obs.spans(records)} == {"whole"}

    def test_unmerged_parts_are_read(self, tmp_path):
        # A SIGKILLed owner never merges; readers pick up the parts.
        trace = tmp_path / "t.jsonl"
        part = tmp_path / "t.jsonl.pid-4242"
        part.write_text(json.dumps(
            {"t": "span", "name": "orphan", "pid": 4242, "tid": 0,
             "id": "4242-1", "ts": 1.0, "dur": 2.0}) + "\n")
        names = {r["name"] for r in obs.spans(obs.read_trace(trace))}
        assert names == {"orphan"}


class TestMultiProcess:
    def test_forked_child_writes_own_part_with_parent_link(
            self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        context = multiprocessing.get_context("fork")

        def child():
            with obs.span("child.work"):
                pass
            obs.counter("child.events", 2)
            obs.flush()
            os._exit(0)

        with obs.span("parent.dispatch") as rec:
            proc = context.Process(target=child)
            proc.start()
            proc.join()
        assert proc.exitcode == 0
        obs.shutdown()
        records = obs.read_trace(trace)
        assert not list(tmp_path.glob("t.jsonl.pid-*"))  # merged
        spans = {r["name"]: r for r in obs.spans(records)}
        parent = spans["parent.dispatch"]
        child_span = spans["child.work"]
        assert child_span["pid"] != parent["pid"]
        # Fork keeps the open-span stack: the child's first span links
        # to the span that was live at fork time, across processes.
        assert child_span["parent"] == parent["id"]
        assert obs.counter_totals(records) == {"child.events": 2}

    def test_span_ids_unique_across_pids(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        context = multiprocessing.get_context("fork")

        def child():
            with obs.span("c"):
                pass
            os._exit(0)

        with obs.span("p"):
            procs = [context.Process(target=child) for _ in range(2)]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join()
        obs.shutdown()
        ids = [r["id"] for r in obs.spans(obs.read_trace(trace))]
        assert len(ids) == len(set(ids)) == 3


class TestExport:
    def make_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        with obs.span("campaign.dispatch", mode="serial"):
            with obs.span("store.get", kind="mc_point"):
                pass
        obs.counter("store.hit", 3)
        obs.counter("store.miss", 1)
        obs.shutdown()
        return obs.read_trace(trace)

    def test_to_chrome_shape(self, tmp_path):
        chrome = obs.to_chrome(self.make_trace(tmp_path))
        assert chrome["displayTimeUnit"] == "ms"
        events = chrome["traceEvents"]
        complete = {e["name"]: e for e in events if e["ph"] == "X"}
        assert set(complete) == {"campaign.dispatch", "store.get"}
        assert complete["store.get"]["cat"] == "store"
        assert complete["campaign.dispatch"]["cat"] == "campaign"
        # Timestamps rebase to zero at the earliest span.
        assert min(e["ts"] for e in complete.values()) == 0.0
        assert complete["store.get"]["args"]["parent_span"] \
            == complete["campaign.dispatch"]["args"]["span_id"]
        assert any(e["ph"] == "M" for e in events)
        counters = {e["name"]: e["args"]["value"]
                    for e in events if e["ph"] == "C"}
        assert counters == {"store.hit": 3, "store.miss": 1}

    def test_span_aggregates_self_time(self, tmp_path):
        rows = {row["name"]: row
                for row in obs.span_aggregates(self.make_trace(tmp_path))}
        outer = rows["campaign.dispatch"]
        inner = rows["store.get"]
        assert outer["count"] == inner["count"] == 1
        # Self time excludes the nested child's duration.
        assert outer["self_ms"] \
            == pytest.approx(outer["total_ms"] - inner["total_ms"])
        assert inner["self_ms"] == pytest.approx(inner["total_ms"])

    def test_render_stats_table(self, tmp_path):
        text = obs.render_stats(self.make_trace(tmp_path))
        assert "campaign.dispatch" in text
        assert "store.hit" in text
        assert "store hit rate" in text and "75.0%" in text

    def test_unit_times_accumulate_attempts(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        for _ in range(2):  # a retried unit costs both attempts
            with obs.span("campaign.unit", label="fig5:p1"):
                pass
        with obs.span("campaign.unit", label="fig5:p2"):
            pass
        with obs.span("campaign.other", label="ignored"):
            pass
        obs.shutdown()
        times = obs.unit_times(obs.read_trace(trace))
        assert set(times) == {"fig5:p1", "fig5:p2"}
        assert times["fig5:p1"] >= times["fig5:p2"] >= 0


class TestFaultCrossRef:
    def test_fired_faults_carry_mono_and_span(self, tmp_path):
        faults.reset()
        try:
            faults.configure("seed=1;store.object_write:oserror@hits=1",
                             log_path=tmp_path / "faults.jsonl")
            obs.configure(tmp_path / "t.jsonl")
            with obs.span("store.put") as rec:
                span_id = obs.current_span_id()
                assert faults.fire("store.object_write") == "oserror"
            obs.shutdown()
            (record,) = faults.read_log(tmp_path / "faults.jsonl")
            assert record["pid"] == os.getpid()
            assert record["mono"] > 0
            assert record["span"] == span_id
        finally:
            faults.reset()

    def test_fired_faults_span_is_null_untraced(self, tmp_path):
        faults.reset()
        try:
            faults.configure("seed=1;store.object_write:oserror@hits=1",
                             log_path=tmp_path / "faults.jsonl")
            assert faults.fire("store.object_write") == "oserror"
            (record,) = faults.read_log(tmp_path / "faults.jsonl")
            assert record["span"] is None
            assert record["mono"] > 0
        finally:
            faults.reset()
