"""Fig. 6: benchmark comparison under model C at 0.7 V, sigma = 10 mV.

Sweeps the four remaining benchmarks (8/16-bit matrix multiplication,
k-means, Dijkstra) through their transition regions under the proposed
statistical model, and contrasts them with the single hard failure
threshold that model B+ predicts for *all* benchmarks alike.

The paper's qualitative findings that must hold here:

* 8- and 16-bit matrix multiplication behave alike, with the MSE about
  a constant factor apart (different operand/result ranges), and the
  8-bit variant keeps fully-correct runs deeper into the noisy region;
* k-means sees a much lower FI rate than matrix multiplication at the
  same frequency (far fewer multiplications) yet degrades visibly in
  quality while still finishing;
* Dijkstra has a very narrow transition: a few percent beyond its PoFF
  the application fails completely while the FI rate is still low;
* model B+'s threshold sits below every model-C transition, where it
  would predict total failure for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.suite import build_kernel
from repro.experiments.context import ExperimentContext, NOMINAL_VDD
from repro.experiments.fig5 import model_c_onset_hz
from repro.fi.model_c import StatisticalInjector
from repro.mc.results import McPoint
from repro.mc.sweep import FrequencySweep, sweep_units
from repro.mc.units import ExperimentPlan, WorkUnit

#: Benchmarks of the figure (median is covered by Fig. 5).
FIG6_BENCHMARKS = ("mat_mult_8bit", "mat_mult_16bit", "kmeans", "dijkstra")

#: Noise level of the figure.
SIGMA_V = 0.010

#: Voltages whose characterizations planning forces.
PLAN_VDDS = (NOMINAL_VDD,)


@dataclass
class Fig6Result:
    benchmark: str
    sweep: FrequencySweep
    sta_limit_hz: float
    bplus_threshold_hz: float

    @property
    def poff_hz(self) -> float | None:
        return self.sweep.poff_hz()

    @property
    def poff_gain(self) -> float | None:
        return self.sweep.poff_gain_over_sta()

    def error_series(self) -> list[float]:
        """Benchmark-native error metric across the sweep."""
        return self.sweep.metric_series("mean_error")


def _grid(ctx: ExperimentContext, sigma_v: float) -> list[float]:
    """Shared frequency grid covering every benchmark's transition."""
    onset = model_c_onset_hz(ctx, NOMINAL_VDD, sigma_v)
    return list(np.linspace(0.97 * onset,
                            1.35 * ctx.sta_limit_hz(NOMINAL_VDD),
                            ctx.scale.freq_points))


def point_units(ctx: ExperimentContext, seed: int = 2016,
                benchmarks: tuple[str, ...] = FIG6_BENCHMARKS,
                sigma_v: float = SIGMA_V) -> list[WorkUnit]:
    """Per-frequency Monte-Carlo units, grouped by benchmark."""
    characterization = ctx.characterization(NOMINAL_VDD)
    noise = ctx.noise(sigma_v)
    grid = _grid(ctx, sigma_v)
    units: list[WorkUnit] = []
    for salt, name in enumerate(benchmarks):
        kernel = build_kernel(name, ctx.scale.kernel_scale)

        def factory(f, rng):
            return StatisticalInjector(
                characterization, f, noise,
                vdd_operating=NOMINAL_VDD,
                vdd_model=ctx.vdd_model, rng=rng)

        units.extend(sweep_units(
            kernel, factory,
            frequencies_hz=grid,
            n_trials=ctx.scale.trials,
            seed=seed + 6151 * salt,
            experiment="fig6",
            scale=ctx.scale,
            condition={"vdd": NOMINAL_VDD, "sigma_v": sigma_v,
                       "model": "C",
                       **ctx.char_fingerprint(NOMINAL_VDD)}))
    return units


def assemble(ctx: ExperimentContext, points: list[McPoint],
             benchmarks: tuple[str, ...] = FIG6_BENCHMARKS,
             sigma_v: float = SIGMA_V) -> list[Fig6Result]:
    """Group resolved points back into per-benchmark sweeps."""
    sta_limit = ctx.sta_limit_hz(NOMINAL_VDD)
    bplus_threshold = ctx.bplus_onset_hz(NOMINAL_VDD, sigma_v)
    grid = sorted(_grid(ctx, sigma_v))
    results = []
    for index, name in enumerate(benchmarks):
        sweep = FrequencySweep(
            kernel_name=name,
            frequencies_hz=grid,
            points=points[index * len(grid):(index + 1) * len(grid)],
            sta_limit_hz=sta_limit,
            config={"vdd": NOMINAL_VDD, "sigma_v": sigma_v,
                    "model": "C"})
        results.append(Fig6Result(
            benchmark=name,
            sweep=sweep,
            sta_limit_hz=sta_limit,
            bplus_threshold_hz=bplus_threshold))
    return results


def plan(ctx: ExperimentContext, seed: int = 2016,
         benchmarks: tuple[str, ...] = FIG6_BENCHMARKS,
         sigma_v: float = SIGMA_V) -> ExperimentPlan:
    """Every benchmark swept at 0.7 V with sigma = 10 mV."""
    return ExperimentPlan(
        units=point_units(ctx, seed=seed, benchmarks=benchmarks,
                          sigma_v=sigma_v),
        assemble=lambda points: assemble(
            ctx, points, benchmarks=benchmarks, sigma_v=sigma_v),
        render=lambda results: render(results))


def render(results: list[Fig6Result]) -> str:
    """Human-readable summary per benchmark."""
    lines = []
    for result in results:
        gain = result.poff_gain
        gain_text = f"{gain:+.1%}" if gain is not None else "beyond sweep"
        lines.append(
            f"--- {result.benchmark}  (B+ threshold "
            f"{result.bplus_threshold_hz / 1e6:.0f} MHz, PoFF gain "
            f"{gain_text}) ---")
        lines.append(f"{'f [MHz]':>9s} {'finished':>9s} {'correct':>9s} "
                     f"{'FI/kCyc':>9s} {'error':>12s}")
        for row in result.sweep.rows():
            lines.append(
                f"{row['frequency_mhz']:9.1f} {row['p_finished']:9.1%} "
                f"{row['p_correct']:9.1%} "
                f"{row['fi_rate_per_kcycle']:9.2f} "
                f"{row['mean_error']:12.4g}")
    return "\n".join(lines)
