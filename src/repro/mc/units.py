"""Work units: the campaign/store currency of every experiment layer.

A figure-level experiment decomposes into **work units**: one unit
computes one storable artifact (a Monte-Carlo :class:`McPoint`, a
fig2 CDF curve, a fig4 MSE curve, ...) and carries the canonical
cache-key payload that addresses its result in a
:class:`repro.store.ResultStore`.  The unit machinery is deliberately
kind-agnostic -- the ``kind`` field of the key payload selects the
artifact's schema and (de)serializer through the store's registry
(:mod:`repro.store.schema`), so any artifact with a lossless
``to_json``/``from_json`` pair can ride the same rails.

Each experiment module declares its recipe once, as an
:class:`ExperimentPlan`: the units, how their artifacts assemble into
the result, and how the result renders.  The same plan serves two
resolvers:

* :func:`resolve_units` iterates the units in order (store-aware: hits
  skip the expensive computation entirely) --
  :func:`repro.experiments.run` returns the assembled result this way;
* the campaign orchestrator shards them across forked workers and
  persists each result as soon as it completes (kill-safe resume);
  every CLI experiment command renders through it.

Key discipline: the payload contains *everything* that determines the
result -- experiment, full scale preset, master seed, and the
condition config (voltage, noise, frequency, hardware-model
fingerprint, benchmark identity) -- plus the schema version, so a
schema bump invalidates stale entries by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

from repro.bench.kernel import KernelInstance
from repro.mc.runner import BUDGET_FACTOR


def work_unit_key(kind: str, experiment: str, scale, seed: int,
                  condition: dict | None, stream: str = "dta") -> dict:
    """Canonical cache-key payload for one work unit of any kind.

    The schema version is read from the store's kind registry so it
    always tracks the artifact class's ``SCHEMA``.  ``stream``
    defaults to ``"dta"`` for deterministic (non-Monte-Carlo)
    artifacts; Monte-Carlo points (:func:`mc_point_key`) and failure
    markers build their keys through here too.
    """
    from repro.store.schema import current_schema
    return {
        "kind": kind,
        "schema": current_schema(kind),
        "experiment": experiment,
        "scale": asdict(scale) if scale is not None else None,
        "seed": seed,
        "stream": stream,
        "config": dict(condition or {}),
    }


def mc_point_key(experiment: str, scale, seed: int,
                 kernel: KernelInstance, n_trials: int,
                 condition: dict | None) -> dict:
    """Canonical cache-key payload for one Monte-Carlo point.

    ``"stream": "serial"`` names ``run_point``'s one random-stream
    scheme; it stays in the payload so existing keys are unchanged.
    """
    return work_unit_key(
        "mc_point", experiment, scale, seed,
        {**(condition or {}),
         "benchmark": kernel.name,
         "kernel_params": dict(kernel.params),
         "n_trials": n_trials,
         "budget_factor": BUDGET_FACTOR},
        stream="serial")


@dataclass
class WorkUnit:
    """One store-addressable unit of work of any artifact kind.

    Attributes:
        label: human-readable unit name (shown by campaign status).
        key: full cache-key payload (see :func:`work_unit_key` /
            :func:`mc_point_key`); its ``kind`` field selects the
            artifact schema and serializer.
        compute: runs the expensive computation and returns the
            artifact (a closure over the experiment context, kernels
            and seeds; it is fork-inheritable but not picklable).
    """

    label: str
    key: dict
    compute: Callable[[], object]


@dataclass
class ExperimentPlan:
    """One experiment as units plus the recipe that folds them.

    Attributes:
        units: the experiment's work units, in assembly order.
        assemble: resolved artifacts (in unit order) -> the result.
        render: result -> the rendered text.
        prepare: optional; forces expensive shared substrate (fig2's
            characterizations) and is invoked by the orchestrator only
            when the plan has pending units, so a fully warm campaign
            never touches it.

    Plans call their module's ``assemble``/``render`` through the
    module at call time (a lambda, not a bound function object), so a
    wrapper installed on the module attribute sees every call.
    """

    units: list[WorkUnit]
    assemble: Callable[[list], object]
    render: Callable[[object], str]
    prepare: Callable[[], None] | None = None


def resolve_units(units: list[WorkUnit], store=None,
                  progress: Callable[[str], None] | None = None) \
        -> tuple[list, int, int]:
    """Resolve units in order against a store (or compute them all).

    Every store hit skips its computation; every miss is computed and
    immediately persisted, so a killed run resumes from the last
    completed unit.  Returns ``(artifacts, n_cached, n_computed)``;
    the artifacts are in unit order either way.
    """
    artifacts: list = []
    n_cached = 0
    n_computed = 0
    for unit in units:
        artifact = store.get(unit.key) if store is not None else None
        if artifact is None:
            artifact = unit.compute()
            if store is not None:
                store.put(unit.key, artifact, label=unit.label)
            n_computed += 1
            if progress is not None:
                progress(f"computed {unit.label}")
        else:
            n_cached += 1
            if progress is not None:
                progress(f"cached   {unit.label}")
        artifacts.append(artifact)
    return artifacts, n_cached, n_computed
