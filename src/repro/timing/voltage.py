"""Fitted supply-voltage / delay model.

Following the paper (Section 3.3), the relation between a supply
voltage change and path delay is extracted from a *fitted Vdd-delay
curve*, interpolated from the worst path delay at five supply voltages
(0.6 V to 1.0 V in 100 mV steps).  The fitted curve converts per-cycle
voltage noise into a multiplicative delay scale factor, and also powers
the voltage-overscaling analysis of Fig. 7 (running below the nominal
supply at fixed frequency).

As the paper's footnote 1 notes, assuming all paths scale with a single
factor is an approximation that holds for small changes around an
accurately characterized operating point; we adopt the same assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.netlist.alu import AluNetlist
from repro.netlist.library import CHARACTERIZED_VDDS


@dataclass(frozen=True)
class VddDelayModel:
    """Polynomial fit of worst-path delay versus supply voltage.

    Attributes:
        coefficients: ``np.polyfit`` coefficients of delay [ps] vs
            Vdd [V], highest degree first.
        vdd_min: lowest voltage of the fitted data.
        vdd_max: highest voltage of the fitted data.
    """

    coefficients: tuple[float, ...]
    vdd_min: float
    vdd_max: float

    @classmethod
    def fit(cls, vdds: np.ndarray, delays_ps: np.ndarray,
            degree: int = 3) -> "VddDelayModel":
        """Fit the Vdd-delay curve from (voltage, delay) samples."""
        vdds = np.asarray(vdds, dtype=float)
        delays_ps = np.asarray(delays_ps, dtype=float)
        if vdds.shape != delays_ps.shape or vdds.size < degree + 1:
            raise ValueError(
                f"need at least {degree + 1} samples to fit degree "
                f"{degree}; got {vdds.size}")
        coeffs = np.polyfit(vdds, delays_ps, degree)
        return cls(coefficients=tuple(coeffs), vdd_min=float(vdds.min()),
                   vdd_max=float(vdds.max()))

    @classmethod
    def from_alu_sta(cls, alu: "AluNetlist",
                     vdds: tuple[float, ...] = CHARACTERIZED_VDDS,
                     degree: int = 3) -> "VddDelayModel":
        """Fit from STA of the ALU's worst path at each library corner.

        This mirrors the paper's methodology: the worst path is timed
        with the foundry views at each of the five characterized
        supplies, and the curve is interpolated between them.
        """
        voltages = np.array(vdds, dtype=float)
        delays = np.array(
            [alu.worst_sta_period_ps(v) for v in voltages])
        return cls.fit(voltages, delays, degree)

    def delay_ps(self, vdd: np.ndarray | float) -> np.ndarray | float:
        """Fitted worst-path delay [ps] at a supply voltage.

        Values outside the fitted range are clamped to the range edges
        (large physically-unrealistic extrapolations are not
        meaningful; noise is clipped to +-2 sigma anyway).  The
        polynomial is evaluated by the Horner steps of ``np.polyval``
        (from zero, multiply then add each coefficient), in place, so
        the result is ``np.polyval``'s bit for bit with two arrays
        allocated instead of one per step.
        """
        vdd = np.clip(vdd, self.vdd_min, self.vdd_max)
        delay = np.zeros_like(vdd, dtype=float)
        for coefficient in self.coefficients:
            delay *= vdd
            delay += coefficient
        return delay[()]

    def scale_factor(self, vdd_effective: np.ndarray | float,
                     vdd_reference: float) -> np.ndarray | float:
        """Delay multiplier at ``vdd_effective`` relative to a reference.

        A droop (lower effective voltage) yields a factor > 1: all path
        delays stretch by this factor during the affected cycle.
        """
        factor = self.delay_ps(vdd_effective)
        factor /= self.delay_ps(vdd_reference)
        return factor
