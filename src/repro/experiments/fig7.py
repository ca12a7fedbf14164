"""Fig. 7: output error versus core power under voltage overscaling.

The system runs the median benchmark at the fixed nominal frequency
(the 707 MHz STA limit at 0.7 V) while the supply voltage is scaled
*below* 0.7 V.  Model C (CDFs characterized at 0.7 V, scaled through
the fitted Vdd-delay curve) provides the quality metric; the quadratic
power model converts each voltage into normalized core power.

The paper's qualitative findings that must hold here:

* without noise there is a voltage-reduction window with ~0 % error
  (the PoFF sits below 0.7 V), yielding real power savings;
* at sigma = 10 mV the error/power curve follows the no-noise one with
  slightly higher power for equal quality;
* at sigma = 25 mV the error rises much earlier -- only marginal
  savings remain at reasonable quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.suite import build_kernel
from repro.experiments.context import (
    ExperimentContext,
    NOISE_SIGMAS,
    NOMINAL_VDD,
)
from repro.fi.model_c import StatisticalInjector
from repro.mc.results import McPoint
from repro.mc.runner import run_point
from repro.mc.units import ExperimentPlan, WorkUnit, mc_point_key
from repro.power.model import CorePowerModel

#: Swept supply-voltage range [V] (below the nominal 0.7 V).
VDD_RANGE = (0.64, 0.70)

#: Voltages whose characterizations planning forces.
PLAN_VDDS = (NOMINAL_VDD,)


@dataclass
class Fig7Point:
    """One (sigma, vdd) configuration."""

    sigma_v: float
    vdd: float
    normalized_power: float
    point: McPoint

    @property
    def relative_error(self) -> float:
        """Average relative error of finished runs (1.0 if none finish)."""
        if self.point.p_finished == 0.0:
            return 1.0
        return self.point.mean_relative_error_of_finished


@dataclass
class Fig7Curve:
    sigma_v: float
    points: list[Fig7Point]

    def poff_vdd(self) -> float | None:
        """Lowest swept voltage that is still fully correct."""
        correct = [p.vdd for p in self.points if p.point.p_correct == 1.0]
        return min(correct) if correct else None

    def power_at_poff(self) -> float | None:
        poff = self.poff_vdd()
        if poff is None:
            return None
        for point in self.points:
            if point.vdd == poff:
                return point.normalized_power
        return None


@dataclass
class Fig7Result:
    curves: list[Fig7Curve]
    frequency_hz: float

    def curve(self, sigma_v: float) -> Fig7Curve:
        for candidate in self.curves:
            if candidate.sigma_v == sigma_v:
                return candidate
        raise KeyError(f"no curve for sigma {sigma_v}")


def _voltages(ctx: ExperimentContext) -> np.ndarray:
    return np.linspace(VDD_RANGE[0], VDD_RANGE[1],
                       ctx.scale.voltage_points)


def point_units(ctx: ExperimentContext, seed: int = 2016,
                benchmark: str = "median") -> list[WorkUnit]:
    """One Monte-Carlo unit per (sigma, Vdd) configuration."""
    kernel = build_kernel(benchmark, ctx.scale.kernel_scale)
    characterization = ctx.characterization(NOMINAL_VDD)
    frequency = ctx.sta_limit_hz(NOMINAL_VDD)
    units: list[WorkUnit] = []
    for sigma in NOISE_SIGMAS:
        noise = ctx.noise(sigma)
        for index, vdd in enumerate(_voltages(ctx)):
            point_seed = seed + 31 * index + int(sigma * 1e6)

            def compute(vdd=vdd, noise=noise, point_seed=point_seed):
                def factory(rng):
                    return StatisticalInjector(
                        characterization, frequency, noise,
                        vdd_operating=float(vdd),
                        vdd_model=ctx.vdd_model, rng=rng)
                return run_point(
                    kernel, factory,
                    n_trials=ctx.scale.trials,
                    seed=point_seed,
                    label=f"{kernel.name}@{vdd:.3f}V")

            units.append(WorkUnit(
                label=f"fig7:{kernel.name}@{vdd:.3f}V/"
                      f"{sigma * 1e3:.0f}mV",
                key=mc_point_key(
                    "fig7", ctx.scale, point_seed, kernel,
                    ctx.scale.trials,
                    {"vdd": float(vdd), "sigma_v": sigma, "model": "C",
                     "frequency_hz": float(frequency),
                     **ctx.char_fingerprint(NOMINAL_VDD)}),
                compute=compute))
    return units


def assemble(ctx: ExperimentContext, points: list[McPoint],
             benchmark: str = "median") -> Fig7Result:
    """Group resolved points back into per-sigma error/power curves."""
    frequency = ctx.sta_limit_hz(NOMINAL_VDD)
    power_model = CorePowerModel()
    voltages = _voltages(ctx)
    curves = []
    offset = 0
    for sigma in NOISE_SIGMAS:
        curve_points = []
        for vdd in voltages:
            curve_points.append(Fig7Point(
                sigma_v=sigma,
                vdd=float(vdd),
                normalized_power=power_model.normalized_power(
                    float(vdd), frequency / 1e6, NOMINAL_VDD,
                    frequency / 1e6),
                point=points[offset]))
            offset += 1
        curves.append(Fig7Curve(sigma_v=sigma, points=curve_points))
    return Fig7Result(curves=curves, frequency_hz=frequency)


def plan(ctx: ExperimentContext, seed: int = 2016,
         benchmark: str = "median") -> ExperimentPlan:
    """The voltage-overscaling trade-off study."""
    return ExperimentPlan(
        units=point_units(ctx, seed=seed, benchmark=benchmark),
        assemble=lambda points: assemble(ctx, points,
                                         benchmark=benchmark),
        render=lambda result: render(result))


def render(result: Fig7Result) -> str:
    """Human-readable error/power rows per noise level."""
    lines = [f"Fig.7 @ fixed {result.frequency_hz / 1e6:.0f} MHz"]
    for curve in result.curves:
        poff = curve.poff_vdd()
        power = curve.power_at_poff()
        poff_text = (f"PoFF {poff:.3f} V at {power:.2f}x power"
                     if poff is not None else "PoFF outside sweep")
        lines.append(f"--- sigma = {curve.sigma_v * 1e3:.0f} mV "
                     f"({poff_text}) ---")
        lines.append(f"{'Vdd [V]':>8s} {'power':>7s} {'finished':>9s} "
                     f"{'correct':>9s} {'rel.err':>8s}")
        for point in curve.points:
            lines.append(
                f"{point.vdd:8.3f} {point.normalized_power:7.3f} "
                f"{point.point.p_finished:9.1%} "
                f"{point.point.p_correct:9.1%} "
                f"{point.relative_error:8.1%}")
    return "\n".join(lines)
