"""Work units: the campaign/store currency of every experiment layer.

A figure-level experiment decomposes into **work units**: one unit
computes one storable artifact (a Monte-Carlo :class:`McPoint`, a
fig2 CDF curve, a fig4 MSE curve, ...) and carries the canonical
cache-key payload that addresses its result in a
:class:`repro.store.ResultStore`.  The unit machinery is deliberately
kind-agnostic -- the ``kind`` field of the key payload selects the
artifact's schema and (de)serializer through the store's registry
(:mod:`repro.store.schema`), so any artifact with a lossless
``to_json``/``from_json`` pair can ride the same rails.  The same
units serve three callers:

* the figure drivers iterate them in order (store-aware: hits skip the
  expensive computation entirely);
* the campaign orchestrator shards them across forked workers and
  persists each result as soon as it completes (kill-safe resume);
* tests compare resolve paths (fresh vs cached vs forked) for
  bit-identical output.

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
from repro.mc.results import MC_POINT_SCHEMA
from repro.mc.runner import BUDGET_FACTOR


def work_unit_key(kind: str, experiment: str, scale, seed: int,
                  condition: dict | None, stream: str = "dta") -> dict:
    """Canonical cache-key payload for one work unit of any kind.

    The schema version is read from the store's kind registry so it
    always tracks the artifact's ``*_SCHEMA`` constant.  ``stream``
    defaults to ``"dta"`` for deterministic (non-Monte-Carlo)
    artifacts; Monte-Carlo points use :func:`mc_point_key` instead.
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
    return {
        "kind": "mc_point",
        "schema": MC_POINT_SCHEMA,
        "experiment": experiment,
        "scale": asdict(scale) if scale is not None else None,
        "seed": seed,
        "stream": "serial",
        "config": {
            **(condition or {}),
            "benchmark": kernel.name,
            "kernel_params": dict(kernel.params),
            "n_trials": n_trials,
            "budget_factor": BUDGET_FACTOR,
        },
    }


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
