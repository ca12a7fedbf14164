"""Fig. 5: median benchmark under model C across Vdd and noise levels.

Six sub-figures -- supply voltages {0.7 V, 0.8 V} x noise sigmas
{0, 10, 25 mV} -- each showing the four application metrics of the
proposed statistical model over clock frequency, with the point of
first failure (PoFF) and its gain over the STA limit.

The paper's qualitative findings that must hold here:

* the PoFF sits *above* the STA limit for low noise (frequency
  over-scaling gain) and the gain shrinks as sigma grows, vanishing
  around sigma = 25 mV;
* more noise shifts all transitions to lower frequencies and smooths
  them; a higher supply voltage sharpens them;
* once the finish probability collapses, the output error of the
  remaining successful runs saturates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.suite import build_kernel
from repro.experiments.context import (
    ExperimentContext,
    NOISE_SIGMAS,
)
from repro.experiments.scale import Scale, get_scale
from repro.fi.model_c import StatisticalInjector
from repro.mc.results import McPoint
from repro.mc.sweep import FrequencySweep, sweep_units
from repro.mc.units import WorkUnit, resolve_units

#: Supply voltages of the six sub-figures.
PLOT_VDDS = (0.7, 0.8)


@dataclass
class Fig5Config:
    """One sub-figure's operating condition."""

    vdd: float
    sigma_v: float

    @property
    def label(self) -> str:
        return f"Vdd={self.vdd:.1f}V sigma={self.sigma_v * 1e3:.0f}mV"


@dataclass
class Fig5Result:
    config: Fig5Config
    sweep: FrequencySweep
    sta_limit_hz: float

    @property
    def poff_hz(self) -> float | None:
        return self.sweep.poff_hz()

    @property
    def poff_gain(self) -> float | None:
        return self.sweep.poff_gain_over_sta()


def model_c_onset_hz(ctx: ExperimentContext, vdd: float,
                     sigma_v: float) -> float:
    """First frequency at which model C can inject any fault.

    The largest DTA critical period over all instructions, stretched by
    the worst-case clipped droop, bounds the onset from below.
    """
    characterization = ctx.characterization(vdd)
    max_critical = max(
        float(cdfs.row_max_sorted[-1])
        for cdfs in characterization.cdfs.values())
    droop = ctx.noise(sigma_v).max_droop_v
    factor = float(ctx.vdd_model.scale_factor(vdd - droop, vdd))
    return 1e12 / (max_critical * factor)


def transition_grid(ctx: ExperimentContext, vdd: float, sigma_v: float,
                    points: int) -> list[float]:
    """Frequency grid covering the transition region of one condition."""
    onset = model_c_onset_hz(ctx, vdd, sigma_v)
    top = 1.30 * ctx.sta_limit_hz(vdd)
    return list(np.linspace(0.97 * onset, max(top, 1.05 * onset), points))


def conditions() -> list[Fig5Config]:
    """The six (Vdd, sigma) sub-figure conditions, in figure order."""
    return [Fig5Config(vdd=vdd, sigma_v=sigma)
            for vdd in PLOT_VDDS for sigma in NOISE_SIGMAS]


def point_units(ctx: ExperimentContext, seed: int = 2016,
                benchmark: str = "median") -> list[WorkUnit]:
    """Decompose the figure into per-frequency Monte-Carlo units.

    Units are ordered by condition then ascending frequency, matching
    :func:`assemble`'s grouping.  Building them forces the per-voltage
    characterizations (needed for the transition grids), so campaign
    workers fork with the expensive substrate already in place.
    """
    kernel = build_kernel(benchmark, ctx.scale.kernel_scale)
    units: list[WorkUnit] = []
    for config in conditions():
        characterization = ctx.characterization(config.vdd)
        noise = ctx.noise(config.sigma_v)

        def factory(f, rng, characterization=characterization,
                    noise=noise, vdd=config.vdd):
            return StatisticalInjector(
                characterization, f, noise,
                vdd_operating=vdd,
                vdd_model=ctx.vdd_model, rng=rng)

        units.extend(sweep_units(
            kernel, factory,
            frequencies_hz=transition_grid(
                ctx, config.vdd, config.sigma_v, ctx.scale.freq_points),
            n_trials=ctx.scale.trials,
            seed=seed,
            experiment="fig5",
            scale=ctx.scale,
            condition={"vdd": config.vdd, "sigma_v": config.sigma_v,
                       "model": "C",
                       **ctx.char_fingerprint(config.vdd)}))
    return units


def assemble(ctx: ExperimentContext, points: list[McPoint],
             benchmark: str = "median") -> list[Fig5Result]:
    """Group resolved points back into the six sub-figure sweeps."""
    results = []
    offset = 0
    for config in conditions():
        grid = sorted(transition_grid(
            ctx, config.vdd, config.sigma_v, ctx.scale.freq_points))
        sweep = FrequencySweep(
            kernel_name=benchmark,
            frequencies_hz=grid,
            points=points[offset:offset + len(grid)],
            sta_limit_hz=ctx.sta_limit_hz(config.vdd),
            config={"vdd": config.vdd, "sigma_v": config.sigma_v,
                    "model": "C"})
        offset += len(grid)
        results.append(Fig5Result(
            config=config,
            sweep=sweep,
            sta_limit_hz=ctx.sta_limit_hz(config.vdd)))
    return results


def run(scale: str | Scale = "default", seed: int = 2016,
        context: ExperimentContext | None = None,
        benchmark: str = "median",
        store=None) -> list[Fig5Result]:
    """Run all six sub-figures.

    ``store`` serves already-computed points without re-simulating and
    persists fresh ones.
    """
    scale = get_scale(scale)
    ctx = context or ExperimentContext.create(scale, seed, store=store)
    if store is None:
        store = ctx.store
    units = point_units(ctx, seed=seed, benchmark=benchmark)
    points, _, _ = resolve_units(units, store)
    return assemble(ctx, points, benchmark=benchmark)


def render(results: list[Fig5Result]) -> str:
    """Human-readable summary per sub-figure."""
    lines = []
    for result in results:
        gain = result.poff_gain
        gain_text = f"{gain:+.1%}" if gain is not None else "beyond sweep"
        lines.append(
            f"--- {result.config.label}  STA "
            f"{result.sta_limit_hz / 1e6:.0f} MHz, PoFF gain {gain_text} ---")
        lines.append(f"{'f [MHz]':>9s} {'finished':>9s} {'correct':>9s} "
                     f"{'FI/kCyc':>9s} {'rel.err':>8s}")
        for row in result.sweep.rows():
            lines.append(
                f"{row['frequency_mhz']:9.1f} {row['p_finished']:9.1%} "
                f"{row['p_correct']:9.1%} "
                f"{row['fi_rate_per_kcycle']:9.2f} "
                f"{row['mean_relative_error']:8.1%}")
    return "\n".join(lines)
