"""Fig. 4: MSE versus frequency for individual arithmetic instructions.

Reproduces the instruction-characterization study (paper Section 4.1):
addition with 16-bit and with 32-bit operand ranges, and multiplication
with 16-bit operand ranges (32-bit results), all with uniformly random
operands at 0.7 V and sigma = 10 mV supply noise.

Implementation: the DTA engine provides, per characterization cycle,
the exact endpoint arrival times *and* the correct result value.  For
each swept frequency every cycle draws its own noise value; endpoints
whose scaled critical period exceeds the clock period flip, and the MSE
between the corrupted and correct result streams is reported.

The paper's qualitative findings that must hold here: the points of
first calculation failure are ordered mul < add-32 < add-16 in
frequency, and the MSE rises with frequency and saturates near the
operand-width-determined maximum about 15 % beyond the PoFF.

Each instruction variant is one **work unit** (see
:mod:`repro.mc.units`): its curve is fully determined by the ALU
timing model, the variant's derived seed and the sweep parameters, and
persists in the result store under the ``fig4_curve`` kind.  Every
variant owns an independent random stream (derived from the master
seed and the variant index), so units are order-independent and can be
sharded across campaign workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.experiments.context import ExperimentContext, NOMINAL_VDD
from repro.mc.units import ExperimentPlan, WorkUnit, work_unit_key
from repro.timing.characterize import alu_fingerprint
from repro.timing.dta import run_dta
from repro.timing.noise import VoltageNoise

#: Instruction variants of the study: (label, mnemonic, operand bits,
#: signed operands).  Addition with a 16-bit value range uses 15-bit
#: unsigned operands so the result also stays within 16 bits (the
#: paper: "operands with a 16-bit value range and a 16-bit result");
#: multiplication covers a *signed* 16-bit value range, whose sign
#: extension excites the full multiplier array (32-bit result).
VARIANTS = (
    ("l.add 16-bit", "l.add", 15, False),
    ("l.add 32-bit", "l.add", 32, False),
    ("l.mul 32-bit", "l.mul", 16, True),
)

#: Default noise level of the study.
SIGMA_V = 0.010

#: Frequency axis of the paper's plot [Hz].
FREQ_AXIS = (650e6, 1250e6)

#: Per-variant seed stride: every variant derives its own master seed
#: as ``seed + 4 + FIG4_SEED_STRIDE * index`` (the ``+ 4`` is the
#: study's historical RNG salt), so variant curves are independent of
#: the order in which they compute.
FIG4_SEED_STRIDE = 15485863


@dataclass
class InstructionMseCurve:
    """MSE-vs-frequency curve of one instruction variant."""

    SCHEMA: ClassVar[int] = 1

    label: str
    mnemonic: str
    operand_bits: int
    frequencies_hz: np.ndarray
    mse: np.ndarray

    def poff_hz(self) -> float | None:
        """Lowest swept frequency with MSE > 0."""
        nonzero = np.flatnonzero(self.mse > 0)
        if nonzero.size == 0:
            return None
        return float(self.frequencies_hz[nonzero[0]])

    # -- persistence -----------------------------------------------------

    def to_json(self) -> dict:
        """Lossless JSON body (schema ``SCHEMA``)."""
        from repro.store.serialize import encode
        return {
            "schema": self.SCHEMA,
            "label": self.label,
            "mnemonic": self.mnemonic,
            "operand_bits": int(self.operand_bits),
            "frequencies_hz": encode(np.asarray(self.frequencies_hz)),
            "mse": encode(np.asarray(self.mse)),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "InstructionMseCurve":
        """Inverse of :meth:`to_json` (exact numpy round-trip)."""
        from repro.store.serialize import decode
        return cls(
            label=payload["label"],
            mnemonic=payload["mnemonic"],
            operand_bits=payload["operand_bits"],
            frequencies_hz=decode(payload["frequencies_hz"]),
            mse=decode(payload["mse"]),
        )


@dataclass
class Fig4Result:
    curves: list[InstructionMseCurve]
    vdd: float
    sigma_v: float

    def curve(self, label: str) -> InstructionMseCurve:
        for candidate in self.curves:
            if candidate.label == label:
                return candidate
        raise KeyError(f"no curve labelled {label!r}")


def _wrap_sq_error(corrupted: np.ndarray, correct: np.ndarray) -> np.ndarray:
    diff = (corrupted - correct) & np.uint64(0xFFFFFFFF)
    wrapped = np.minimum(diff, np.uint64(1 << 32) - diff)
    return wrapped.astype(np.float64) ** 2


def _variant_rng(seed: int, index: int) -> np.random.Generator:
    """Independent random stream of one instruction variant.

    Each variant derives its own stream from the master seed and its
    variant index, so a variant's curve does not depend on which other
    variants ran before it -- the property that lets campaign workers
    compute variants in any order or in parallel.
    """
    return np.random.default_rng(seed + 4 + FIG4_SEED_STRIDE * index)


def _compute_curve(ctx: ExperimentContext, index: int, seed: int,
                   sigma_v: float, points: int) -> InstructionMseCurve:
    """Run the DTA + noise-corruption sweep of one variant."""
    label, mnemonic, bits, signed = VARIANTS[index]
    frequencies = np.linspace(FREQ_AXIS[0], FREQ_AXIS[1], points)
    noise = VoltageNoise(sigma_v)
    rng = _variant_rng(seed, index)
    n_samples = ctx.scale.fig4_samples
    if signed:
        low, high = -(1 << (bits - 1)), 1 << (bits - 1)
        operands = tuple(
            (rng.integers(low, high, n_samples + 1, dtype=np.int64)
             & 0xFFFFFFFF).astype(np.uint64)
            for _ in range(2))
    else:
        operands = tuple(
            rng.integers(0, 1 << bits, n_samples + 1, dtype=np.uint64)
            for _ in range(2))
    dta = run_dta(ctx.alu, mnemonic, n_samples, vdd=NOMINAL_VDD,
                  seed=seed, operands=operands)
    critical = dta.critical_ps  # (n, 32)
    correct = dta.values.astype(np.uint64)
    bit_weights = (np.uint64(1) << np.arange(32, dtype=np.uint64))
    mse = np.empty_like(frequencies)
    for fi, frequency in enumerate(frequencies):
        period = 1e12 / frequency
        droops = noise.sample(n_samples, rng)
        factors = np.asarray(ctx.vdd_model.scale_factor(
            NOMINAL_VDD + droops, NOMINAL_VDD))
        violated = critical * factors[:, None] > period
        masks = (violated * bit_weights[None, :]).sum(
            axis=1, dtype=np.uint64)
        corrupted = correct ^ masks
        mse[fi] = _wrap_sq_error(corrupted, correct).mean()
    return InstructionMseCurve(
        label=label, mnemonic=mnemonic, operand_bits=bits,
        frequencies_hz=frequencies, mse=mse)


def curve_units(ctx: ExperimentContext, seed: int = 2016,
                sigma_v: float = SIGMA_V,
                points: int | None = None) -> list[WorkUnit]:
    """Decompose the study into one work unit per instruction variant.

    Planning is cheap (no DTA runs until a unit computes); the cache
    key carries the ALU timing-model fingerprint, the variant's sweep
    parameters and the sample count, so hardware-model or scale
    changes invalidate persisted curves instead of serving stale ones.
    """
    points = points or max(ctx.scale.freq_points * 4, 25)
    units: list[WorkUnit] = []
    for index, (label, mnemonic, bits, signed) in enumerate(VARIANTS):
        def compute(index=index):
            return _compute_curve(ctx, index, seed, sigma_v, points)

        units.append(WorkUnit(
            label=f"fig4:{label}",
            key=work_unit_key(
                "fig4_curve", "fig4", ctx.scale, seed,
                {"variant": label, "mnemonic": mnemonic,
                 "operand_bits": bits, "signed": signed,
                 "variant_index": index,
                 "vdd": NOMINAL_VDD, "sigma_v": float(sigma_v),
                 "points": points,
                 "freq_axis": [float(f) for f in FREQ_AXIS],
                 "n_samples": ctx.scale.fig4_samples,
                 "glitch_model": "sensitized",
                 "alu": alu_fingerprint(ctx.alu)}),
            compute=compute))
    return units


def assemble(curves: list[InstructionMseCurve],
             sigma_v: float = SIGMA_V) -> Fig4Result:
    """Fold resolved curve units (in unit order) into the result."""
    return Fig4Result(curves=list(curves), vdd=NOMINAL_VDD,
                      sigma_v=sigma_v)


def plan(ctx: ExperimentContext, seed: int = 2016,
         sigma_v: float = SIGMA_V,
         points: int | None = None) -> ExperimentPlan:
    """The instruction MSE study (planning runs no DTA).

    Against a store, previously computed curves reload bit-identically
    and a rerun performs zero DTA work.
    """
    return ExperimentPlan(
        units=curve_units(ctx, seed=seed, sigma_v=sigma_v,
                          points=points),
        assemble=lambda curves: assemble(curves, sigma_v=sigma_v),
        render=lambda result: render(result))


def render(result: Fig4Result) -> str:
    """Human-readable PoFF summary plus MSE samples."""
    lines = [f"Fig.4 @ {result.vdd} V, sigma = {result.sigma_v * 1e3:.0f} mV"]
    for curve in result.curves:
        poff = curve.poff_hz()
        peak = curve.mse.max()
        poff_text = (f"{poff / 1e6:7.1f} MHz" if poff is not None
                     else f"{'-':>7s} MHz")
        lines.append(
            f"  {curve.label:14s} PoFF = "
            f"{poff_text}   saturation MSE = {peak:.3e}")
    return "\n".join(lines)
