"""Sharded campaign orchestration over the result store.

A *campaign* is one experiment of the :data:`repro.experiments.EXPERIMENTS`
registry, decomposed by its module's ``plan`` into store-addressable
work units (see :mod:`repro.mc.units` -- Monte-Carlo points for
fig5/6/7/ablations, DTA curve artifacts for fig2/fig4, ...), run with
three guarantees:

* **Idempotence** -- units already in the store are never recomputed;
  a campaign restarted after a kill (``resume``) picks up exactly the
  missing units.
* **Determinism** -- every unit owns a derived master seed (Monte-
  Carlo units additionally the serial random-stream scheme), so its
  result is independent of which worker computes it or in what order;
  the rendered output of a resumed or sharded campaign is
  byte-identical to an uninterrupted single-process run.
* **Kill-safety** -- workers persist each unit atomically the moment
  it completes; at worst the unit in flight at kill time is redone.

Every CLI experiment command is a campaign (``--no-store`` gives it a
throwaway store).  The ``all`` target plans every
:data:`CAMPAIGN_EXPERIMENTS` entry into one combined unit list, shards
it over the dispatch, and renders each figure from its own units.

Dispatch has three modes:

* **serial** -- units computed in-process, in plan order;
* **fork** (``jobs >= 2``) -- one forked child per static shard of the
  pending units.  Unit closures capture injector factories and
  compiled kernels, which cannot be pickled; fork inherits them along
  with the parent's characterization tables.  Each child calls
  :func:`_run_shard`, sends its outcome dict over a pipe and exits;
  the parent joins every child;
* **fabric** (``fabric_workers``) -- forked lease workers racing for
  unit batches on the shared store (:mod:`repro.fabric.worker`).

Both multi-process modes end in the same backstop: any unit whose
worker returned no outcome (SIGKILLed, crashed) is recovered by a
store scan and then computed serially in the parent, so completion
never depends on worker liveness.  Children are independent and their
shards static, so a campaign's fired-fault sequence is deterministic.
Fork is required for both; without it dispatch runs serially.  Forked
children are the repo's one parallel substrate: inside a unit, every
propagate runs serially.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro import faults, obs
from repro.campaign.failures import UnitFailure, failure_key
from repro.experiments import EXPERIMENTS
from repro.experiments.context import ExperimentContext
from repro.experiments.scale import Scale, get_scale
from repro.mc.units import ExperimentPlan, WorkUnit
from repro.timing.characterize import characterization_key

_LOG = logging.getLogger("repro.campaign")

#: Experiments the ``all`` target and the ``campaign`` command cover --
#: every registered one with expensive substance (table2 is a static
#: matrix, fig-sta-margin four cheap STA reports).
CAMPAIGN_EXPERIMENTS = ("table1", "fig1", "fig2", "fig4", "fig5",
                        "fig6", "fig7", "ablations")

#: Pseudo-experiment: every campaign experiment in one sharded pass.
ALL_TARGET = "all"


@dataclass
class CampaignReport:
    """Outcome of one ``run_campaign`` invocation."""

    experiment: str
    scale: str
    seed: int
    jobs: int
    total: int
    cached: int
    computed: int
    rendered: str
    #: Units whose compute raised on every allowed attempt; their
    #: failure markers are in the store and their plans render a
    #: failure notice instead of the figure.
    failed: int = 0
    failures: list = field(default_factory=list)

    def summary(self) -> str:
        text = (f"campaign {self.experiment} scale={self.scale} "
                f"seed={self.seed} jobs={self.jobs}: {self.total} units, "
                f"{self.cached} cached, {self.computed} computed")
        if self.failed:
            text += f", {self.failed} FAILED"
        return text


@dataclass
class CampaignStatus:
    """Store-side progress of a campaign."""

    experiment: str
    scale: str
    seed: int
    total: int
    done: int
    pending: list[str]
    #: ``"label (attempts=N)"`` for units with a stored failure marker
    #: -- attempted and crashed, as opposed to never attempted.
    failed: list = field(default_factory=list)

    def summary(self) -> str:
        text = (f"campaign {self.experiment} scale={self.scale} "
                f"seed={self.seed}: {self.done}/{self.total} units "
                f"complete, {len(self.pending)} pending")
        if self.failed:
            text += f", {len(self.failed)} failed"
        return text


def plan_campaign(experiment: str, ctx: ExperimentContext,
                  seed: int) -> ExperimentPlan:
    """Decompose an experiment into units and its assemble/render recipe.

    Planning forces the characterizations of the module's
    ``PLAN_VDDS`` (unit grids derive from them); with a store attached
    to ``ctx`` they persist, so a resumed campaign replans without
    re-running DTA.
    """
    try:
        module = EXPERIMENTS[experiment]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment!r}; known: "
            f"{tuple(EXPERIMENTS) + (ALL_TARGET,)}") from None
    return module.plan(ctx, seed)


def _campaign_experiments(experiment: str) -> tuple[str, ...]:
    """Concrete experiments behind a campaign target."""
    if experiment == ALL_TARGET:
        return CAMPAIGN_EXPERIMENTS
    return (experiment,)


def _cold_store_notice(experiment: str, names: tuple[str, ...],
                       ctx: ExperimentContext, store) -> str | None:
    """Say which characterizations planning is about to compute.

    Reads the modules' declared ``PLAN_VDDS`` and checks this
    context's own characterization keys with ``store.contains``, so a
    characterization persisted for a different scale/seed/ALU never
    suppresses the notice.  None when every one is stored.
    """
    # Insertion-ordered de-dup of the voltages planning forces.
    vdds = dict.fromkeys(vdd for name in names for vdd
                         in getattr(EXPERIMENTS[name], "PLAN_VDDS", ()))
    missing = [vdd for vdd in vdds if not store.contains(
        characterization_key(ctx.alu, ctx.char_config(vdd)))]
    if not missing:
        return None
    return (f"cold store: planning {experiment} will run the DTA "
            f"characterization first for "
            f"{', '.join(f'{vdd:.2f}V' for vdd in missing)} "
            f"(persisted for every later call)")


def campaign_status(experiment: str, scale: str | Scale, seed: int,
                    store, log: Callable[[str], None] | None = None) \
        -> CampaignStatus:
    """Report which units of a campaign are already in the store.

    Planning needs the experiment's DTA characterizations (frequency
    grids derive from them), so on a *cold* store even ``status`` runs
    and persists them once -- expensive at paper scale.  ``log`` is
    told before that happens; every later status call is served from
    the store.
    """
    resolved = get_scale(scale)
    ctx = ExperimentContext.create(resolved, seed, store=store)
    names = _campaign_experiments(experiment)
    notice = _cold_store_notice(experiment, names, ctx, store)
    if notice is not None and log is not None:
        log(notice)
    plans = [plan_campaign(name, ctx, seed) for name in names]
    units = [unit for plan in plans for unit in plan.units]
    pending = []
    failed = []
    for unit in units:
        if store.contains(unit.key):
            continue
        marker = store.get(failure_key(unit.key))
        if marker is not None:
            failed.append(f"{unit.label} (attempts={marker.attempts})")
        else:
            pending.append(unit.label)
    return CampaignStatus(
        experiment=experiment,
        scale=resolved.name,
        seed=seed,
        total=len(units),
        done=len(units) - len(pending) - len(failed),
        pending=pending,
        failed=failed,
    )


def _compute_one(unit: WorkUnit, store) -> str | None:
    """Compute and persist one unit; returns an error string on failure.

    Only the unit's *compute* is isolated: a crashing unit records a
    :class:`UnitFailure` marker in the store (attempt count
    accumulated across runs) instead of aborting the campaign.  Store
    persistence errors propagate -- a failing store is campaign-fatal,
    and the store layer already retries transient OSErrors itself.
    """
    fkey = failure_key(unit.key)
    with obs.span("campaign.unit", label=unit.label) as rec:
        try:
            faults.trip("campaign.unit_run")
            artifact = unit.compute()
        except Exception:
            error = traceback.format_exc()
            prior = store.get(fkey)
            attempts = (prior.attempts if prior is not None else 0) + 1
            store.put(fkey, UnitFailure(label=unit.label, error=error,
                                        attempts=attempts,
                                        last_unix=time.time()),
                      label=f"failure:{unit.label}")
            _LOG.warning("campaign unit %s failed (attempt %d): %s",
                         unit.label, attempts,
                         error.strip().splitlines()[-1])
            rec.set(outcome="failed", attempt=attempts)
            obs.counter("campaign.units_failed")
            return error
        store.put(unit.key, artifact, label=unit.label)
        store.delete(fkey)  # a success clears any stale failure marker
        rec.set(outcome="ok")
        obs.counter("campaign.units_computed")
    return None


def _compute_pending(units: list[WorkUnit], store,
                     indices: list[int],
                     kill_site: str | None = None,
                     emit: Callable[[str], None] | None = None) -> dict:
    """Compute and persist the units at ``indices``.

    Returns ``{"computed": [...], "failed": [...]}`` index lists.
    ``computed`` holds only the indices *actually* computed: units a
    worker of a concurrent campaign raced us to are skipped (the
    recheck keeps the work unique) and must not be reported as
    computed.  ``failed`` units have failure markers in the store.
    ``kill_site`` is a forked worker's chaos hook, fired before each
    unit; ``emit`` (serial dispatch only) is told about each unit.
    """
    computed: list[int] = []
    failed: list[int] = []
    for index in indices:
        if kill_site is not None:
            faults.fire(kill_site)
        unit = units[index]
        if store.contains(unit.key):
            continue
        if _compute_one(unit, store) is None:
            computed.append(index)
            if emit is not None:
                emit(f"computed {unit.label}")
        else:
            failed.append(index)
            if emit is not None:
                emit(f"FAILED {unit.label}")
    # Shard workers exit via os._exit (no atexit): flush counter
    # snapshots at this barrier so the merged trace sees them.
    obs.flush()
    return {"computed": computed, "failed": failed}


# Fork-worker state, set in the parent right before the shard children
# fork (the unit closures are not picklable; fork inherits them).
_WORKER_STATE: dict | None = None


def _fork_available() -> bool:
    """Whether this platform can fork the fork/fabric workers."""
    return "fork" in multiprocessing.get_all_start_methods() \
        and hasattr(os, "fork")


def _init_worker(state: dict | None) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_shard(indices: list[int]) -> dict:
    """Forked campaign worker: compute/persist the units at ``indices``."""
    state = _WORKER_STATE
    assert state is not None, "worker state missing (no fork?)"
    return _compute_pending(state["units"], state["store"], indices,
                            kill_site=state.get("kill_site"))


def _shard_child(worker: int, indices: list[int], conn) -> None:
    """Body of one forked shard child: run, send the outcome, exit.

    The kill site is per-worker (``campaign.worker.kill.w1``) because
    fault decisions are pure functions of (seed, site, hit) and
    children inherit the parent's hit counters: a shared site name
    would kill every worker on the same hit.  ``_run_shard`` is looked
    up at call time, so a wrapper installed on the module attribute
    sees every shard.
    """
    try:
        _init_worker({**_WORKER_STATE,
                      "kill_site": f"campaign.worker.kill.w{worker}"})
        conn.send(_run_shard(indices))
        conn.close()
    except BaseException:
        _LOG.exception("campaign worker %d crashed", worker)
        obs.flush()
        os._exit(1)
    # Skip atexit/multiprocessing teardown: the forked interpreter
    # inherited compiled kernels it must not finalize.
    os._exit(0)


def _dispatch_fork(units: list[WorkUnit], store,
                   shards: list[list[int]], emit) -> list:
    """Run each shard in its own forked child; returns per-shard outcomes.

    A shard whose child died before sending (SIGKILL, crash) yields
    None -- the caller backstops it.  Each pipe's write end is closed
    in the parent right after its child starts, so later children
    never inherit it and a dead child's pipe reads EOF at once.
    """
    faults.trip("campaign.shard_dispatch")
    context = multiprocessing.get_context("fork")
    _init_worker({"units": units, "store": store})
    children = []
    try:
        for worker, shard in enumerate(shards):
            reader, writer = context.Pipe(duplex=False)
            proc = context.Process(target=_shard_child,
                                   args=(worker, shard, writer),
                                   daemon=False)
            proc.start()
            writer.close()
            children.append((proc, reader))
    finally:
        _init_worker(None)
    outcomes = []
    for worker, (proc, reader) in enumerate(children):
        try:
            outcome = reader.recv()
        except (EOFError, OSError):
            outcome = None
        reader.close()
        proc.join()
        if outcome is None:
            _LOG.warning("campaign worker %d exited %s without an "
                         "outcome; backstopping its shard", worker,
                         proc.exitcode)
            obs.counter("campaign.worker.died")
        else:
            emit(f"shard done ({len(outcome['computed'])} units "
                 f"computed, {len(outcome['failed'])} failed)")
        outcomes.append(outcome)
    return outcomes


def _backstop(units: list[WorkUnit], indices: list[int], store,
              emit) -> dict:
    """Recover units no worker reported on: store scan, then compute.

    A unit already in the store counts as computed and one with a
    failure marker as failed (the retry rounds take it from there);
    anything else is computed serially right here.  Used after both
    multi-process dispatch modes, so worker liveness is never a
    correctness dependency.
    """
    computed: list[int] = []
    failed: list[int] = []
    for index in indices:
        unit = units[index]
        if store.contains(unit.key):
            computed.append(index)
            continue
        if store.get(failure_key(unit.key)) is not None:
            failed.append(index)
            continue
        emit(f"backstop: computing {unit.label}")
        obs.counter("campaign.backstop")
        if _compute_one(unit, store) is None:
            computed.append(index)
        else:
            failed.append(index)
    return {"computed": computed, "failed": failed}


#: Base backoff between unit retry rounds (seconds, doubled per round).
RETRY_BACKOFF_S = 0.05


def run_campaign(experiment: str, scale: str | Scale = "default",
                 seed: int = 2016, store=None, jobs: int = 1,
                 log: Callable[[str], None] | None = None,
                 max_retries: int = 0,
                 fabric_workers: int | None = None,
                 context: ExperimentContext | None = None) \
        -> CampaignReport:
    """Run (or resume) a campaign to its rendered figure output.

    Args:
        experiment: a :data:`repro.experiments.EXPERIMENTS` name, or
            ``"all"`` to plan every :data:`CAMPAIGN_EXPERIMENTS` entry
            into one combined unit list, dispatched once and rendered
            per figure.
        scale: fidelity preset (name or :class:`Scale`).
        seed: master seed (every unit derives its own).
        store: the :class:`repro.store.ResultStore` holding results;
            required -- the store *is* the campaign state.
        jobs: worker processes for pending units (1 = in-process);
            ``jobs >= 2`` forks one child per static shard.
        log: optional progress sink (e.g. stderr writer).
        max_retries: extra rounds for units whose compute raised.
            Retries run serially in the parent with exponential
            backoff between rounds; units still failing afterwards
            keep their store markers, render as a failure notice, and
            are counted in ``CampaignReport.failed``.
        fabric_workers: run pending units through the distributed
            fabric instead -- N forked lease workers racing
            for unit batches on the (typically ``--fabric URL``
            remote) store, crash-resuming each other via lease steals
            (:mod:`repro.fabric.worker`).  Requires fork; falls back
            to serial dispatch where unavailable.
        context: the context to plan on (same scale, seed and store),
            so consecutive campaigns share its characterizations and
            Vdd fit; default: a fresh one.

    Resuming is the same call again: completed units are store hits
    and only the missing ones execute, with byte-identical rendered
    output for any jobs value.
    """
    if store is None:
        raise ValueError("run_campaign needs a result store; it is the "
                         "campaign's persistent state")
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    emit = log or (lambda message: None)
    resolved = get_scale(scale)
    ctx = context or ExperimentContext.create(resolved, seed, store=store)
    names = _campaign_experiments(experiment)
    notice = _cold_store_notice(experiment, names, ctx, store)
    if notice is not None:
        emit(notice)
    plans = []
    for name in names:
        with obs.span("campaign.plan", experiment=name) as rec:
            plan = plan_campaign(name, ctx, seed)
            rec.set(units=len(plan.units))
        plans.append(plan)
    units = [unit for plan in plans for unit in plan.units]
    # The pending scan is the read: every stored unit is decoded once
    # here and kept; an undecodable one reads as a miss and recomputes.
    artifacts = [store.get(unit.key) for unit in units]
    pending = [index for index, artifact in enumerate(artifacts)
               if artifact is None]
    obs.counter("campaign.units_cached", len(units) - len(pending))
    emit(f"{experiment}: {len(units)} units, "
         f"{len(units) - len(pending)} cached, "
         f"{len(pending)} to compute")
    # Warm the shared substrate of every plan that will compute
    # something, before forking: workers inherit it instead of racing.
    pending_set = set(pending)
    offset = 0
    for plan in plans:
        plan_range = range(offset, offset + len(plan.units))
        offset += len(plan.units)
        if plan.prepare is not None \
                and any(index in pending_set for index in plan_range):
            plan.prepare()

    computed_indices: set[int] = set()
    failed_indices: set[int] = set()

    def absorb(outcome: dict) -> None:
        computed_indices.update(outcome["computed"])
        failed_indices.update(outcome["failed"])

    if pending and fabric_workers and _fork_available():
        # Distributed fabric: forked lease workers race for batches
        # on the shared store; a killed worker's lease lapses and a
        # peer steals it.  Workers report nothing, so the backstop's
        # store scan is the outcome.
        from repro.fabric.worker import dispatch_fabric
        with obs.span("campaign.dispatch", mode="fabric",
                      pending=len(pending), workers=fabric_workers):
            dispatch_fabric(units, pending, store, fabric_workers,
                            _compute_one, emit)
            absorb(_backstop(units, pending, store, emit))
    elif len(pending) > 1 and jobs >= 2 and _fork_available():
        shards = [pending[start::jobs] for start in range(jobs)
                  if pending[start::jobs]]
        with obs.span("campaign.dispatch", mode="fork",
                      pending=len(pending), shards=len(shards)):
            for shard, outcome in zip(
                    shards, _dispatch_fork(units, store, shards, emit)):
                absorb(outcome if outcome is not None
                       else _backstop(units, shard, store, emit))
    else:
        with obs.span("campaign.dispatch", mode="serial",
                      pending=len(pending)):
            absorb(_compute_pending(units, store, pending, emit=emit))

    def read_back(indices) -> None:
        """Load what dispatch persisted; an undecodable unit fails."""
        for index in indices:
            if index in failed_indices:
                continue
            artifacts[index] = store.get(units[index].key)
            if artifacts[index] is None:
                emit(f"undecodable unit {units[index].label}")
                failed_indices.add(index)
                computed_indices.discard(index)

    read_back(pending)
    # Retry rounds for crashed or undecodable units: serial in the
    # parent (a worker may be part of the problem), exponential
    # backoff between rounds.
    for attempt in range(1, max_retries + 1):
        if not failed_indices:
            break
        time.sleep(RETRY_BACKOFF_S * (1 << (attempt - 1)))
        emit(f"retry round {attempt}/{max_retries}: "
             f"{len(failed_indices)} failed unit(s)")
        retry = sorted(failed_indices)
        failed_indices.clear()
        for index in retry:
            unit = units[index]
            if store.contains(unit.key) \
                    or _compute_one(unit, store) is None:
                computed_indices.add(index)
                emit(f"computed {unit.label} (retry {attempt})")
            else:
                failed_indices.add(index)
        read_back(retry)

    sections = []
    offset = 0
    for name, plan in zip(names, plans):
        plan_units = units[offset:offset + len(plan.units)]
        plan_artifacts = artifacts[offset:offset + len(plan.units)]
        offset += len(plan.units)
        missing = [unit.label for unit, artifact
                   in zip(plan_units, plan_artifacts)
                   if artifact is None]
        if missing:
            # Failure isolation at render time too: a plan with failed
            # units reports them instead of poisoning its renderer
            # (and the other plans still render normally).
            rendered = (f"{name}: NOT RENDERED -- "
                        f"{len(missing)} unit(s) failed "
                        f"(see `campaign status`):\n"
                        + "\n".join(f"  {label}" for label in missing))
        else:
            with obs.span("campaign.render", experiment=name):
                rendered = plan.render(plan.assemble(plan_artifacts))
        if len(plans) > 1:
            rendered = (f"{'=' * 72}\n{name} "
                        f"(scale: {resolved.name})\n{'=' * 72}\n"
                        f"{rendered}")
        sections.append(rendered)
    obs.flush()
    return CampaignReport(
        experiment=experiment,
        scale=resolved.name,
        seed=seed,
        jobs=fabric_workers if fabric_workers else jobs,
        total=len(units),
        cached=len(units) - len(computed_indices)
        - len(failed_indices),
        computed=len(computed_indices),
        rendered="\n\n".join(sections),
        failed=len(failed_indices),
        failures=sorted(units[index].label
                        for index in failed_indices),
    )


def stderr_log(message: str) -> None:
    """Default CLI progress sink."""
    print(message, file=sys.stderr, flush=True)
