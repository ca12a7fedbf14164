"""Fig. 1: FI rate and program behavior under models B and B+.

Reproduces the paper's illustration of STA-based fault injection on the
median benchmark: model B exhibits a cliff right at the STA limit (the
FI rate jumps to hundreds of faults per kCycle within a fraction of a
MHz, and the finish/correct probabilities collapse from 100 % to 0 %
with no usable transition region), while model B+ moves the cliff to
lower frequencies as the noise sigma grows -- the onset then has a low
FI rate, but the application behavior remains a hard threshold.

Sub-figures: (a) model B, sigma = 0; (b) model B+, sigma = 10 mV;
(c) model B+, sigma = 25 mV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.suite import build_kernel
from repro.experiments.context import ExperimentContext, NOMINAL_VDD
from repro.fi.model_b import StaInjector
from repro.fi.model_bplus import StaNoiseInjector
from repro.mc.results import McPoint
from repro.mc.sweep import FrequencySweep, sweep_units
from repro.mc.units import ExperimentPlan, WorkUnit
from repro.timing.characterize import alu_fingerprint

#: Noise sigmas of the three sub-figures [V] (0 = model B's cliff).
SUB_FIGURE_SIGMAS = (0.0, 0.010, 0.025)

#: Benchmark of the illustration.
BENCHMARK = "median"


@dataclass
class Fig1Result:
    """One sub-figure: a narrow sweep around the model's onset."""

    sigma_v: float
    model: str
    onset_hz: float
    sweep: FrequencySweep

    def rows(self) -> list[dict]:
        return self.sweep.rows()


def _onset_grid(onset_hz: float, points: int) -> list[float]:
    """Narrow grid straddling the onset, like the paper's 5 MHz span."""
    return list(np.linspace(onset_hz - 2e6, onset_hz + 3.5e6, points))


def _sub_figures(ctx: ExperimentContext) -> list[tuple]:
    """(sigma, model name, onset, sweep-level factory) per sub-figure.

    The factories are sweep-level (called as ``factory(f, rng)``);
    building them needs only STA and the fitted Vdd curve, so planning
    fig1 units never runs DTA.
    """
    subs = []
    for sigma in SUB_FIGURE_SIGMAS:
        onset = ctx.bplus_onset_hz(NOMINAL_VDD, sigma)
        noise = ctx.noise(sigma)
        if sigma == 0.0:
            def factory(f, rng):
                return StaInjector(ctx.alu, f, NOMINAL_VDD)
            model = "B"
        else:
            def factory(f, rng, noise=noise):
                return StaNoiseInjector(ctx.alu, f, noise, NOMINAL_VDD,
                                        vdd_model=ctx.vdd_model, rng=rng)
            model = "B+"
        subs.append((sigma, model, onset, factory))
    return subs


def point_units(ctx: ExperimentContext, seed: int = 2016) -> list[WorkUnit]:
    """Decompose the three sub-figures into per-frequency MC units.

    Unit order is sub-figure major, ascending frequency minor,
    matching :func:`assemble`; keys and computations are exactly those
    :func:`plan` has always produced, so campaign-resolved and
    driver-resolved figures share store entries byte for byte.
    """
    kernel = build_kernel(BENCHMARK, ctx.scale.kernel_scale)
    units: list[WorkUnit] = []
    for sigma, model, onset, factory in _sub_figures(ctx):
        units.extend(sweep_units(
            kernel, factory,
            frequencies_hz=_onset_grid(onset, ctx.scale.freq_points),
            n_trials=ctx.scale.trials,
            seed=seed,
            experiment="fig1",
            scale=ctx.scale,
            condition={"model": model, "sigma_v": sigma,
                       "vdd": NOMINAL_VDD,
                       "alu": alu_fingerprint(ctx.alu)}))
    return units


def assemble(ctx: ExperimentContext,
             points: list[McPoint]) -> list[Fig1Result]:
    """Group resolved points back into the three sub-figure sweeps."""
    sta_limit = ctx.sta_limit_hz(NOMINAL_VDD)
    results = []
    offset = 0
    for sigma, model, onset, _ in _sub_figures(ctx):
        grid = sorted(_onset_grid(onset, ctx.scale.freq_points))
        sweep = FrequencySweep(
            kernel_name=BENCHMARK,
            frequencies_hz=grid,
            points=points[offset:offset + len(grid)],
            sta_limit_hz=sta_limit,
            config={"model": model, "sigma_v": sigma,
                    "vdd": NOMINAL_VDD})
        offset += len(grid)
        results.append(Fig1Result(sigma_v=sigma, model=model,
                                  onset_hz=onset, sweep=sweep))
    return results


def plan(ctx: ExperimentContext, seed: int = 2016) -> ExperimentPlan:
    """The three sub-figures on the median benchmark."""
    return ExperimentPlan(
        units=point_units(ctx, seed=seed),
        assemble=lambda points: assemble(ctx, points),
        render=lambda results: render(results))


def render(results: list[Fig1Result]) -> str:
    """Human-readable summary of the three sub-figures."""
    lines = []
    for result in results:
        lines.append(
            f"--- model {result.model}, sigma = {result.sigma_v * 1e3:.0f} mV"
            f" (onset {result.onset_hz / 1e6:.1f} MHz) ---")
        lines.append(f"{'f [MHz]':>9s} {'FI/kCyc':>9s} {'finished':>9s} "
                     f"{'correct':>9s}")
        for row in result.rows():
            lines.append(
                f"{row['frequency_mhz']:9.2f} "
                f"{row['fi_rate_per_kcycle']:9.2f} "
                f"{row['p_finished']:9.1%} {row['p_correct']:9.1%}")
    return "\n".join(lines)
