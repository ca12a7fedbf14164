"""Trace readers: merge, Chrome ``trace_event`` export, stats tables.

The on-disk trace is newline-delimited JSON (see
:mod:`repro.obs.plane`): ``span`` records with microsecond start/
duration on the shared monotonic timebase, cumulative ``ctr`` counter
snapshots, and one ``meta`` record per contributing pid.  This module
turns that into:

* :func:`to_chrome` -- a Chrome ``trace_event`` JSON object (complete
  ``"X"`` events plus process metadata and ``"C"`` counter events)
  loadable in Perfetto / ``chrome://tracing``;
* :func:`render_stats` -- an aggregate text table: top spans by total
  and self time, counter totals with store hit rate, and the
  lease-fabric aggregates.

Readers are forgiving by design: unparsable lines (a record torn by a
kill) are skipped, and leftover ``.pid-*`` part files of a run whose
owner never merged (SIGKILL) are read transparently alongside the
merged file.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path


def read_trace(path: str | Path) -> list[dict]:
    """Parse a trace file plus any unmerged per-pid part files.

    Returns every well-formed record; bad lines are skipped (the
    writer appends whole lines, but a kill can tear the last one).
    """
    base = Path(path)
    texts = []
    if base.exists():
        texts.append(base.read_text())
    for part in sorted(base.parent.glob(f"{base.name}.pid-*")):
        try:
            texts.append(part.read_text())
        except OSError:  # pragma: no cover - racing cleanup
            continue
    records = []
    for text in texts:
        for line in text.splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "t" in record:
                records.append(record)
    return records


def spans(records: list[dict]) -> list[dict]:
    return [r for r in records if r.get("t") == "span"]


def category_of(name: str) -> str:
    """Span category = the dotted name's first component."""
    return name.split(".", 1)[0]


def counter_totals(records: list[dict]) -> dict[str, float]:
    """Cross-process counter totals.

    Snapshots are cumulative per pid, so the latest snapshot of each
    pid wins and pids sum.
    """
    latest: dict[int, dict] = {}
    for record in records:
        if record.get("t") != "ctr":
            continue
        pid = record.get("pid", 0)
        kept = latest.get(pid)
        if kept is None or record.get("ts", 0) >= kept.get("ts", 0):
            latest[pid] = record
    totals: dict[str, float] = defaultdict(float)
    for record in latest.values():
        for name, value in record.get("counters", {}).items():
            totals[name] += value
    return dict(totals)


def _meta_by_pid(records: list[dict]) -> dict[int, dict]:
    metas = {}
    for record in records:
        if record.get("t") == "meta":
            metas.setdefault(record.get("pid", 0), record)
    return metas


def to_chrome(records: list[dict]) -> dict:
    """Convert trace records to a Chrome ``trace_event`` JSON object.

    Spans become complete (``"X"``) events; counters become one
    ``"C"`` event per pid at its last snapshot time; each pid gets a
    ``process_name`` metadata event (the parent is the pid whose
    ``meta.ppid`` is not itself a trace participant).  Timestamps are
    rebased so the trace starts at zero.
    """
    span_records = spans(records)
    t0 = min((r["ts"] for r in span_records), default=0.0)
    events = []
    metas = _meta_by_pid(records)
    pids = {r["pid"] for r in span_records} | set(metas)
    for pid in sorted(pids):
        ppid = metas.get(pid, {}).get("ppid")
        role = "worker" if ppid in pids else "parent"
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name",
                       "args": {"name": f"repro {role} {pid}"}})
    for record in span_records:
        event = {
            "ph": "X",
            "name": record["name"],
            "cat": category_of(record["name"]),
            "pid": record["pid"],
            "tid": record.get("tid", 0),
            "ts": record["ts"] - t0,
            "dur": record["dur"],
        }
        args = dict(record.get("a", {}))
        args["span_id"] = record.get("id")
        if "parent" in record:
            args["parent_span"] = record["parent"]
        event["args"] = args
        events.append(event)
    by_pid_ctrs: dict[int, dict] = {}
    for record in records:
        if record.get("t") != "ctr":
            continue
        pid = record.get("pid", 0)
        kept = by_pid_ctrs.get(pid)
        if kept is None or record.get("ts", 0) >= kept.get("ts", 0):
            by_pid_ctrs[pid] = record
    for pid, record in sorted(by_pid_ctrs.items()):
        for name, value in sorted(record.get("counters", {}).items()):
            events.append({"ph": "C", "pid": pid, "tid": 0,
                           "name": name,
                           "ts": max(record.get("ts", t0) - t0, 0.0),
                           "args": {"value": value}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_aggregates(records: list[dict]) -> list[dict]:
    """Per-name aggregates: count, total/self/max wall time (ms).

    Self time is a span's duration minus the durations of its direct
    children (linked by parent span id), so a wrapper like
    ``campaign.dispatch`` does not double-count the unit spans that
    ran inside it -- including children forked into other processes.
    """
    span_records = spans(records)
    child_time: dict[str, float] = defaultdict(float)
    for record in span_records:
        parent = record.get("parent")
        if parent is not None:
            child_time[parent] += record["dur"]
    rows: dict[str, dict] = {}
    for record in span_records:
        row = rows.setdefault(record["name"], {
            "name": record["name"], "count": 0, "total_ms": 0.0,
            "self_ms": 0.0, "max_ms": 0.0})
        dur_ms = record["dur"] / 1e3
        row["count"] += 1
        row["total_ms"] += dur_ms
        row["self_ms"] += max(
            record["dur"] - child_time.get(record.get("id"), 0.0),
            0.0) / 1e3
        row["max_ms"] = max(row["max_ms"], dur_ms)
    return sorted(rows.values(), key=lambda row: -row["total_ms"])


def unit_times(records: list[dict]) -> dict[str, float]:
    """Wall milliseconds per computed campaign unit label.

    A unit attempted more than once (retries) accumulates all its
    attempts -- the cost of the unit is what it actually cost.
    """
    times: dict[str, float] = defaultdict(float)
    for record in spans(records):
        if record["name"] != "campaign.unit":
            continue
        label = record.get("a", {}).get("label")
        if label:
            times[label] += record["dur"] / 1e3
    return dict(times)


def fabric_split(records: list[dict]) -> dict | None:
    """Lease-fabric aggregates: batch latency, steals, HTTP health.

    ``fabric.batch`` spans cover a held lease from acquisition to
    done-marker; stolen batches are broken out so steal latency (how
    long recovering a dead peer's work actually took) is visible next
    to first-claim latency.  Returns None when the trace has no
    fabric activity.
    """
    first_ms = steal_ms = 0.0
    first_n = steal_n = 0
    for record in spans(records):
        if record["name"] != "fabric.batch":
            continue
        if record.get("a", {}).get("stolen"):
            steal_n += 1
            steal_ms += record["dur"] / 1e3
        else:
            first_n += 1
            first_ms += record["dur"] / 1e3
    totals = counter_totals(records)
    fabric_counters = {name: value for name, value in totals.items()
                       if name.startswith("fabric.")}
    if not (first_n or steal_n or fabric_counters):
        return None
    return {
        "batches": first_n + steal_n,
        "first_claims": first_n,
        "first_claim_ms": first_ms,
        "steals": steal_n,
        "steal_ms": steal_ms,
        "queue_polls": totals.get("fabric.worker.poll", 0),
        "http_retries": totals.get("fabric.http.retry", 0),
        "spooled_writes": totals.get("fabric.http.spooled", 0),
        "workers_died": totals.get("fabric.worker.died", 0),
    }


def render_stats(records: list[dict], limit: int = 20) -> str:
    """Aggregate text report: spans, counters and fabric use."""
    lines = []
    pids = sorted({r.get("pid") for r in records
                   if r.get("pid") is not None})
    lines.append(f"trace: {len(spans(records))} spans from "
                 f"{len(pids)} process(es) {pids}")
    rows = span_aggregates(records)
    lines.append("")
    lines.append(f"{'span':28s} {'count':>7s} {'total ms':>10s} "
                 f"{'self ms':>10s} {'max ms':>9s}")
    for row in rows[:limit]:
        lines.append(f"{row['name']:28s} {row['count']:>7d} "
                     f"{row['total_ms']:>10.2f} {row['self_ms']:>10.2f} "
                     f"{row['max_ms']:>9.2f}")
    if len(rows) > limit:
        lines.append(f"  ... {len(rows) - limit} more span name(s)")
    totals = counter_totals(records)
    if totals:
        lines.append("")
        lines.append(f"{'counter':28s} {'total':>12s}")
        for name in sorted(totals):
            value = totals[name]
            text = f"{value:,.0f}" if value == int(value) \
                else f"{value:,.2f}"
            lines.append(f"{name:28s} {text:>12s}")
        hits = totals.get("store.hit", 0)
        misses = totals.get("store.miss", 0)
        if hits or misses:
            lines.append(f"{'store hit rate':28s} "
                         f"{hits / (hits + misses):>11.1%}")
        trials = {kind: totals.get(f"mc.trials.{kind}", 0) for kind
                  in ("speculated", "scheduled", "diverged", "live")}
        if any(trials.values()):
            hit_rate = trials["speculated"] / sum(trials.values())
            lines.append(f"{'mc speculation hit rate':28s} "
                         f"{hit_rate:>11.1%}")
        ran_scheduled = trials["scheduled"] + trials["diverged"]
        if ran_scheduled:
            lines.append(f"{'mc divergence rate':28s} "
                         f"{trials['diverged'] / ran_scheduled:>11.1%}")
        cycles = totals.get("sim.cycles", 0)
        if cycles:
            stepped = totals.get("sim.cycles.stepped", 0)
            lines.append(f"{'iss block share':28s} "
                         f"{1 - stepped / cycles:>11.1%}")
        scheduled_alu = totals.get("mc.alu.scheduled", 0)
        if scheduled_alu:
            free = totals.get("sim.alu.free", 0)
            lines.append(f"{'iss hook-free share':28s} "
                         f"{free / scheduled_alu:>11.1%}")
    fabric = fabric_split(records)
    if fabric is not None:
        lines.append("")
        lines.append(
            f"fabric: {fabric['batches']} leased batch(es) -- "
            f"{fabric['first_claims']} first-claim "
            f"({fabric['first_claim_ms']:.2f} ms), "
            f"{fabric['steals']} stolen "
            f"({fabric['steal_ms']:.2f} ms)")
        lines.append(
            f"        {fabric['queue_polls']:.0f} idle poll(s), "
            f"{fabric['http_retries']:.0f} http retries, "
            f"{fabric['spooled_writes']:.0f} spooled write(s), "
            f"{fabric['workers_died']:.0f} worker death(s)")
    return "\n".join(lines)
