"""Parameter sweeps: frequency curves, PoFF detection, STA gains.

A frequency sweep reproduces one sub-figure of the paper: the four
application metrics as a function of clock frequency at a fixed supply
voltage and noise level.  The point of first failure (PoFF) is the
lowest swept frequency at which the application no longer finishes with
a 100 % correct result; its gain over the STA limit is the headline
number annotated in the paper's Fig. 5/6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from repro.bench.kernel import KernelInstance
from repro.fi.base import FaultInjector
from repro.mc.results import McPoint
from repro.mc.runner import run_point
from repro.mc.units import WorkUnit, mc_point_key, resolve_units

#: Builds an injector for (frequency_hz, rng).
FrequencyInjectorFactory = Callable[
    [float, np.random.Generator], FaultInjector]

#: Per-frequency seed stride (each swept point derives its own master
#: seed as ``seed + SWEEP_SEED_STRIDE * index`` over the sorted grid).
SWEEP_SEED_STRIDE = 104729


@dataclass
class FrequencySweep:
    """Results of one frequency sweep of one benchmark.

    Attributes:
        kernel_name: benchmark name.
        frequencies_hz: swept frequencies, ascending.
        points: one aggregated :class:`McPoint` per frequency.
        sta_limit_hz: STA frequency limit of the hardware at the swept
            operating condition (for PoFF-gain reporting).
        config: free-form description of the sweep conditions.
    """

    SCHEMA: ClassVar[int] = 1

    kernel_name: str
    frequencies_hz: list[float]
    points: list[McPoint]
    sta_limit_hz: float
    config: dict = field(default_factory=dict)

    def metric_series(self, metric: str) -> list[float]:
        """Extract one metric across the sweep (see McPoint.summary)."""
        return [point.summary()[metric] for point in self.points]

    def poff_hz(self) -> float | None:
        """Lowest frequency where not every trial finished correct.

        Returns None when every swept point is fully correct (PoFF is
        beyond the sweep) -- callers should widen the sweep.
        """
        for frequency, point in zip(self.frequencies_hz, self.points):
            if point.p_correct < 1.0:
                return frequency
        return None

    def poff_gain_over_sta(self) -> float | None:
        """Relative PoFF gain over the STA limit (paper's annotation).

        Positive values mean the application still ran fully correct
        beyond the STA frequency; None when PoFF is outside the sweep.
        """
        poff = self.poff_hz()
        if poff is None:
            return None
        return poff / self.sta_limit_hz - 1.0

    def rows(self) -> list[dict[str, float]]:
        """Tabular view: one dict per swept frequency."""
        table = []
        for frequency, point in zip(self.frequencies_hz, self.points):
            row = {"frequency_mhz": frequency / 1e6}
            row.update(point.summary())
            table.append(row)
        return table

    # -- persistence -----------------------------------------------------

    def to_json(self) -> dict:
        """Lossless JSON body (schema ``SCHEMA``)."""
        from repro.store.serialize import encode
        return {
            "schema": self.SCHEMA,
            "kernel_name": self.kernel_name,
            "frequencies_hz": [float(f) for f in self.frequencies_hz],
            "points": [point.to_json() for point in self.points],
            "sta_limit_hz": float(self.sta_limit_hz),
            "config": encode(self.config),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FrequencySweep":
        """Inverse of :meth:`to_json` (exact round-trip).

        Nested points decode through the store registry, so their own
        ``"schema"`` is checked as well.
        """
        from repro.store.schema import artifact_from_json
        from repro.store.serialize import decode
        return cls(
            kernel_name=payload["kernel_name"],
            frequencies_hz=list(payload["frequencies_hz"]),
            points=[artifact_from_json("mc_point", p)
                    for p in payload["points"]],
            sta_limit_hz=payload["sta_limit_hz"],
            config=decode(payload["config"]),
        )


def sweep_units(kernel: KernelInstance,
                injector_factory: FrequencyInjectorFactory,
                frequencies_hz: list[float],
                n_trials: int,
                seed: int = 0,
                experiment: str = "",
                scale=None,
                condition: dict | None = None) -> list[WorkUnit]:
    """Decompose a frequency sweep into per-point work units.

    One unit per swept frequency, in ascending-frequency order, each
    with the exact ``run_point`` invocation :func:`sweep_frequencies`
    has always made (same derived seed, label and recorded config), so
    unit-resolved sweeps are bit-identical to the historical loop.

    ``experiment``/``scale``/``condition`` only parameterize the cache
    key (see :func:`repro.mc.units.mc_point_key`); they do not affect
    the computation.
    """
    units = []
    for index, frequency in enumerate(sorted(frequencies_hz)):
        point_seed = seed + SWEEP_SEED_STRIDE * index
        point_condition = {**(condition or {}),
                           "frequency_hz": float(frequency)}

        def compute(f=frequency, s=point_seed):
            # The frequency travels as injector_args (not a closure):
            # every point of the sweep then shares one factory object.
            point = run_point(
                kernel,
                injector_factory,
                n_trials=n_trials,
                seed=s,
                label=f"{kernel.name}@{f / 1e6:.1f}MHz",
                injector_args=(f,),
            )
            point.config = {"frequency_hz": f}
            return point

        units.append(WorkUnit(
            label=f"{experiment or kernel.name}:"
                  f"{kernel.name}@{frequency / 1e6:.1f}MHz",
            key=mc_point_key(experiment, scale, point_seed, kernel,
                             n_trials, point_condition),
            compute=compute,
        ))
    return units


def sweep_frequencies(kernel: KernelInstance,
                      injector_factory: FrequencyInjectorFactory,
                      frequencies_hz: list[float],
                      n_trials: int,
                      sta_limit_hz: float,
                      seed: int = 0,
                      config: dict | None = None,
                      store=None,
                      experiment: str = "",
                      scale=None,
                      key_extra: dict | None = None) -> FrequencySweep:
    """Run a Monte-Carlo frequency sweep.

    Args:
        kernel: benchmark instance (reused across points; one CPU per
            point is reset between trials and keeps its compiled slots).
        injector_factory: builds an injector for a frequency and RNG.
        frequencies_hz: frequencies to sweep (any order; stored sorted).
        n_trials: Monte-Carlo trials per frequency.
        sta_limit_hz: hardware STA limit for PoFF-gain reporting.
        seed: master seed; every frequency derives its own point seed.
        config: description recorded on the sweep.
        store: optional :class:`repro.store.ResultStore`; points found
            there skip their Monte-Carlo simulation, misses are
            computed and persisted.
        experiment: experiment name for the cache key.
        scale: :class:`~repro.experiments.scale.Scale` for the cache key.
        key_extra: extra condition fields for the cache key (e.g. the
            characterization fingerprint) merged on top of ``config``.
    """
    ordered = sorted(frequencies_hz)
    units = sweep_units(kernel, injector_factory, ordered, n_trials,
                        seed=seed, experiment=experiment, scale=scale,
                        condition={**(config or {}), **(key_extra or {})})
    points, _, _ = resolve_units(units, store)
    return FrequencySweep(
        kernel_name=kernel.name,
        frequencies_hz=ordered,
        points=points,
        sta_limit_hz=sta_limit_hz,
        config=config or {},
    )


def frequency_grid(center_hz: float, span_rel: float,
                   points: int) -> list[float]:
    """Symmetric relative frequency grid around a center frequency.

    ``span_rel`` must lie in [0, 1): a span of 1 or more would emit
    zero or negative frequencies, which poison every downstream period
    computation (``1e12 / f``).
    """
    if points < 2:
        raise ValueError("need at least two grid points")
    if not 0.0 <= span_rel < 1.0:
        raise ValueError(
            f"span_rel must be in [0, 1) -- a span of {span_rel} would "
            f"emit zero or negative frequencies, whose clock periods "
            f"(1e12 / f) are meaningless")
    return list(np.linspace(center_hz * (1 - span_rel),
                            center_hz * (1 + span_rel), points))
