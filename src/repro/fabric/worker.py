"""Fabric worker loop: lease-driven, crash-resuming unit scheduling.

``repro campaign run all --fabric URL --workers N`` forks N worker
processes, each running :func:`_worker_main` against the shared store.
The pending unit list is split into *batches* with deterministic
content-derived ids, and workers race for batches through the
:class:`repro.fabric.lease.LeaseLedger`:

* a worker polls the batch list, skipping batches whose completion
  tombstone exists (one read, no per-unit scan);
* it claims an unheld/lapsed batch via PUT-if-absent -- exactly one
  racer wins; claiming over a lapsed foreign lease is a *steal*;
* while computing it heartbeats the lease after every unit; a
  heartbeat that finds the lease stolen abandons the batch (the
  thief owns it now -- any units both computed are byte-identical
  and the store writes are idempotent, so duplicates are harmless);
* after the last unit it writes the ``done`` tombstone and releases.

A worker that dies mid-batch (the chaos schedules SIGKILL it at the
``fabric.worker.kill.w<i>`` site, which only ever fires while a lease
is held) simply stops heartbeating; the lease lapses after its TTL
(``REPRO_LEASE_TTL_S``) and a surviving peer steals the batch.  The
parent joins all workers; the campaign orchestrator then runs the
same backstop it uses for fork dispatch -- any unit still missing
from the store (every worker died) is computed in-process -- so the
campaign's completion never depends on fabric liveness.

Observability: each computed batch runs under a ``fabric.batch`` span
(worker, stolen, units computed) and idle polls count under
``fabric.worker.poll``; together with the ledger's
``fabric.lease.acquire/steal/renew`` counters and the HTTP backend's
retry/spool counters, ``repro stats`` shows queue-wait vs steal
latency for a whole multi-process run.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
import time
from dataclasses import dataclass

from repro import faults, obs
from repro.fabric.lease import LeaseLedger, LeaseLost
from repro.store.retry import _uniform
from repro.store.serialize import key_hash

_LOG = logging.getLogger("repro.fabric")

_POLL_ENV = "REPRO_FABRIC_POLL_S"
_BATCH_ENV = "REPRO_FABRIC_BATCH_UNITS"

DEFAULT_POLL_S = 0.05
DEFAULT_BATCH_UNITS = 2


def default_poll_s() -> float:
    try:
        return max(0.001, float(os.environ[_POLL_ENV]))
    except (KeyError, ValueError):
        return DEFAULT_POLL_S


def default_batch_units() -> int:
    try:
        return max(1, int(os.environ[_BATCH_ENV]))
    except (KeyError, ValueError):
        return DEFAULT_BATCH_UNITS


@dataclass(frozen=True)
class Batch:
    """A leased work quantum: a few pending unit indices."""

    batch_id: str
    indices: tuple[int, ...]


def plan_batches(units, pending: list[int],
                 batch_units: int | None = None) -> list[Batch]:
    """Split pending unit indices into lease-sized batches.

    Batch ids are content-derived (the SHA-256 of the member units'
    store keys), so a resumed run replans the *same* ids and inherits
    the ledger's completion tombstones, and two workers forked from
    the same plan agree on every id without coordination.
    """
    size = batch_units or default_batch_units()
    batches = []
    for start in range(0, len(pending), size):
        indices = tuple(pending[start:start + size])
        digest = hashlib.sha256()
        for index in indices:
            digest.update(key_hash(units[index].key).encode())
            digest.update(b"\x00")
        batches.append(Batch(batch_id=digest.hexdigest()[:16],
                             indices=indices))
    return batches


def _kill_site(worker: int) -> None:
    """Chaos hook, fired only while a lease is held.

    The site is per-worker (``fabric.worker.kill.w1``) because fault
    decisions are pure functions of (seed, site, hit): a shared site
    name would SIGKILL every worker at the same hit, leaving nobody
    to steal.  Schedules may still target the family with
    ``fabric.worker.kill*``.
    """
    faults.fire(f"fabric.worker.kill.w{worker}")


def _worker_main(worker: int, batches: list[Batch], units, store,
                 compute_one, poll_s: float) -> None:
    owner = f"pid{os.getpid()}-w{worker}"
    ledger = LeaseLedger(store.backend)
    done: set[int] = set()
    polls = 0
    while len(done) < len(batches):
        progressed = False
        for slot, batch in enumerate(batches):
            if slot in done:
                continue
            if ledger.is_done(batch.batch_id):
                done.add(slot)
                continue
            lease = ledger.acquire(batch.batch_id, owner)
            if lease is None:
                continue
            progressed = True
            stolen = lease.generation > 1
            with obs.span("fabric.batch", worker=worker,
                          batch=batch.batch_id,
                          stolen=stolen) as rec:
                _kill_site(worker)
                computed = 0
                lost = False
                for index in batch.indices:
                    unit = units[index]
                    if not store.contains(unit.key):
                        compute_one(unit, store)
                        computed += 1
                    _kill_site(worker)
                    try:
                        lease = ledger.renew(lease)
                    except LeaseLost:
                        # A peer stole the batch while we stalled;
                        # whatever we both computed is identical, so
                        # just walk away.
                        _LOG.warning(
                            "worker %d lost batch %s mid-compute",
                            worker, batch.batch_id)
                        lost = True
                        break
                    except OSError:
                        # Heartbeat transiently unreachable: keep
                        # computing.  Worst case the lease lapses and
                        # a thief double-computes -- harmless.
                        obs.counter("fabric.lease.renew_failed")
                rec.set(computed=computed, lost=lost)
                if not lost:
                    ledger.mark_done(batch.batch_id, owner)
                    ledger.release(lease)
                    done.add(slot)
        if not progressed:
            obs.counter("fabric.worker.poll")
            polls += 1
            # Deterministic per-worker jitter de-synchronizes the
            # herd without wall-clock randomness.
            time.sleep(poll_s * (0.5 + _uniform(0, owner, polls)))
    obs.flush()


def _worker_entry(worker, batches, units, store, compute_one,
                  poll_s) -> None:
    try:
        _worker_main(worker, batches, units, store, compute_one,
                     poll_s)
    except BaseException:
        _LOG.exception("fabric worker %d crashed", worker)
        obs.flush()
        os._exit(1)
    # Skip atexit/multiprocessing teardown: the forked interpreter
    # inherited compiled kernels it must not finalize.
    os._exit(0)


def dispatch_fabric(units, pending: list[int], store, workers: int,
                    compute_one, emit=None) -> None:
    """Run pending units across N forked lease workers and join them.

    Workers report nothing back: their exit status carries no result,
    which is exactly what makes SIGKILLing them survivable.  The
    caller derives the outcome from the store afterwards (see the
    orchestrator's backstop).
    """
    emit = emit or (lambda message: None)
    if not pending:
        return
    batches = plan_batches(units, pending)
    poll_s = default_poll_s()
    context = multiprocessing.get_context("fork")
    procs = [
        context.Process(
            target=_worker_entry,
            args=(index, batches, units, store, compute_one, poll_s),
            daemon=False)
        for index in range(max(1, workers))
    ]
    emit(f"fabric: {len(pending)} units in {len(batches)} batches "
         f"across {len(procs)} workers (store: {store.root})")
    for proc in procs:
        proc.start()
    casualties = 0
    for index, proc in enumerate(procs):
        proc.join()
        if proc.exitcode != 0:
            casualties += 1
            _LOG.warning("fabric worker %d exited %s", index,
                         proc.exitcode)
    if casualties:
        obs.counter("fabric.worker.died", casualties)
        emit(f"fabric: {casualties} worker(s) died; "
             f"survivors + backstop cover their leases")
