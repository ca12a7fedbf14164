"""Fig. 2: DTA-extracted timing-error probability CDFs.

Reproduces the cumulative distribution functions of the dynamic
timing-error probability over clock frequency, for the multiplication
and addition instructions, two endpoint bits (a low- and a
high-significance one) and two supply voltages.

The paper's qualitative findings that must hold here:

* ``l.mul`` starts failing at lower frequencies than ``l.add``;
* higher-significance bits fail earlier than low bits;
* a higher supply voltage shifts every CDF to the right.

The figure is pure DTA work: each curve is fully determined by one
characterization and the plotted frequency axis.  Curves are therefore
**work units** (see :mod:`repro.mc.units`) persisted in the result
store under the ``fig2_curve`` kind, so a warm rerun -- or a campaign
worker -- reloads them bit-identically instead of re-running DTA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.context import ExperimentContext
from repro.mc.units import ExperimentPlan, WorkUnit, work_unit_key

#: Endpoint bits plotted by the paper.
PLOT_BITS = (3, 24)

#: Supply voltages plotted by the paper.
PLOT_VDDS = (0.7, 0.8)

#: Frequency axis of the paper's plot [Hz].
FREQ_AXIS = (800e6, 2000e6)

#: Schema version of the CdfCurve JSON representation; bump on any
#: incompatible change (store entries key on it).
FIG2_CURVE_SCHEMA = 1


@dataclass
class CdfCurve:
    """One CDF curve: error probability versus frequency."""

    mnemonic: str
    bit: int
    vdd: float
    frequencies_hz: np.ndarray
    probabilities: np.ndarray

    def first_failure_hz(self) -> float | None:
        """Lowest plotted frequency with non-zero error probability."""
        nonzero = np.flatnonzero(self.probabilities > 0)
        if nonzero.size == 0:
            return None
        return float(self.frequencies_hz[nonzero[0]])

    # -- persistence -----------------------------------------------------

    def to_json(self) -> dict:
        """Lossless JSON body (schema ``FIG2_CURVE_SCHEMA``)."""
        from repro.store.serialize import encode
        return {
            "schema": FIG2_CURVE_SCHEMA,
            "mnemonic": self.mnemonic,
            "bit": int(self.bit),
            "vdd": float(self.vdd),
            "frequencies_hz": encode(np.asarray(self.frequencies_hz)),
            "probabilities": encode(np.asarray(self.probabilities)),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CdfCurve":
        """Inverse of :meth:`to_json` (exact numpy round-trip)."""
        from repro.store.serialize import decode
        if payload.get("schema") != FIG2_CURVE_SCHEMA:
            raise ValueError(
                f"CdfCurve schema mismatch: stored "
                f"{payload.get('schema')}, current {FIG2_CURVE_SCHEMA}")
        return cls(
            mnemonic=payload["mnemonic"],
            bit=payload["bit"],
            vdd=payload["vdd"],
            frequencies_hz=decode(payload["frequencies_hz"]),
            probabilities=decode(payload["probabilities"]),
        )


@dataclass
class Fig2Result:
    curves: list[CdfCurve]

    def curve(self, mnemonic: str, bit: int, vdd: float) -> CdfCurve:
        for candidate in self.curves:
            if (candidate.mnemonic == mnemonic and candidate.bit == bit
                    and candidate.vdd == vdd):
                return candidate
        raise KeyError(f"no curve for {mnemonic} bit {bit} @ {vdd} V")


def prepare(ctx: ExperimentContext) -> None:
    """Force the per-voltage characterizations (store-served when
    present) before sharding units over workers, so they fork with the
    expensive substrate in place and never race to re-characterize."""
    for vdd in PLOT_VDDS:
        ctx.characterization(vdd)


def curve_units(ctx: ExperimentContext, seed: int = 2016,
                mnemonics: tuple[str, ...] = ("l.mul", "l.add"),
                points: int = 241) -> list[WorkUnit]:
    """Decompose the figure into one work unit per CDF curve.

    Units are ordered (vdd, mnemonic, bit) exactly like the historical
    ``run`` loop, so unit-resolved results are bit-identical to it.
    Planning is cheap -- the frequency grid is static -- and the
    characterizations load lazily inside the compute closures (cached
    per context), so a fully warm rerun touches neither DTA nor the
    characterization tables; callers about to fan units out over
    workers call :func:`prepare` first.
    """
    frequencies = np.linspace(FREQ_AXIS[0], FREQ_AXIS[1], points)
    prob_stacks: dict[tuple[float, str], np.ndarray] = {}

    def stack_for(vdd: float, mnemonic: str) -> np.ndarray:
        # All PLOT_BITS curves of one (vdd, mnemonic) slice the same
        # (n_frequencies, 32) stack; memoize it so a cold resolve
        # evaluates each CDF grid once, not once per bit.
        found = prob_stacks.get((vdd, mnemonic))
        if found is None:
            cdfs = ctx.characterization(vdd).cdfs[mnemonic]
            found = np.stack([
                cdfs.error_probs(1e12 / f) for f in frequencies])
            prob_stacks[(vdd, mnemonic)] = found
        return found

    units: list[WorkUnit] = []
    for vdd in PLOT_VDDS:
        for mnemonic in mnemonics:
            for bit in PLOT_BITS:
                def compute(mnemonic=mnemonic, bit=bit, vdd=vdd):
                    return CdfCurve(
                        mnemonic=mnemonic,
                        bit=bit,
                        vdd=vdd,
                        frequencies_hz=frequencies,
                        probabilities=stack_for(vdd, mnemonic)[:, bit],
                    )

                units.append(WorkUnit(
                    label=f"fig2:{mnemonic}/bit{bit}@{vdd:.2f}V",
                    key=work_unit_key(
                        "fig2_curve", "fig2", ctx.scale, seed,
                        {"mnemonic": mnemonic, "bit": bit,
                         "vdd": float(vdd), "points": points,
                         "freq_axis": [float(f) for f in FREQ_AXIS],
                         **ctx.char_fingerprint(vdd)}),
                    compute=compute))
    return units


def assemble(curves: list[CdfCurve]) -> Fig2Result:
    """Fold resolved curve units (in unit order) into the result."""
    return Fig2Result(curves=list(curves))


def plan(ctx: ExperimentContext, seed: int = 2016,
         mnemonics: tuple[str, ...] = ("l.mul", "l.add"),
         points: int = 241) -> ExperimentPlan:
    """The Fig. 2 CDF curves, extracted from DTA characterizations.

    Against a store, previously computed curves reload bit-identically
    and a rerun performs zero DTA work.
    """
    return ExperimentPlan(
        units=curve_units(ctx, seed=seed, mnemonics=mnemonics,
                          points=points),
        assemble=lambda curves: assemble(curves),
        render=lambda result: render(result),
        prepare=lambda: prepare(ctx))


def render(result: Fig2Result) -> str:
    """Summarize each curve by onset and selected probabilities.

    A curve that never fails on the plotted axis renders its onset as
    ``-`` (distinguishable from a real 0 MHz onset).
    """
    lines = [f"{'instr':8s} {'bit':>4s} {'Vdd':>5s} {'onset MHz':>10s} "
             f"{'P@1.0GHz':>9s} {'P@1.4GHz':>9s} {'P@1.8GHz':>9s}"]
    for curve in result.curves:
        onset = curve.first_failure_hz()
        samples = []
        for f_hz in (1.0e9, 1.4e9, 1.8e9):
            index = int(np.argmin(np.abs(curve.frequencies_hz - f_hz)))
            samples.append(curve.probabilities[index])
        onset_text = f"{onset / 1e6:.0f}" if onset is not None else "-"
        lines.append(
            f"{curve.mnemonic:8s} {curve.bit:>4d} {curve.vdd:>5.2f} "
            f"{onset_text:>10s} "
            f"{samples[0]:>9.3f} {samples[1]:>9.3f} {samples[2]:>9.3f}")
    return "\n".join(lines)
