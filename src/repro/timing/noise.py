"""Supply-voltage noise model.

The paper models supply noise as an i.i.d. per-cycle normal random
variable with zero mean and standard deviation sigma, clipped at
+-2 sigma to suppress physically unrealistic tail spikes (Section 3.3).
Each cycle's noise value modulates every path delay of that cycle
through the fitted Vdd-delay curve.

Noise is sampled in pre-generated blocks
(:class:`repro.fi.streams.EffectivePeriodStream`) so the per-cycle
cost inside the instruction set simulator stays negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VoltageNoise:
    """Gaussian supply-voltage noise, clipped at ``clip_sigmas``.

    Attributes:
        sigma_v: standard deviation in volts (e.g. 0.010 for 10 mV).
        clip_sigmas: symmetric clipping point in sigmas (paper: 2.0).
    """

    sigma_v: float
    clip_sigmas: float = 2.0

    def __post_init__(self) -> None:
        if self.sigma_v < 0:
            raise ValueError("noise sigma must be non-negative")
        if self.clip_sigmas <= 0:
            raise ValueError("clip point must be positive")

    @property
    def max_droop_v(self) -> float:
        """Largest possible voltage drop (positive number, volts)."""
        return self.clip_sigmas * self.sigma_v

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` per-cycle noise values [V], clipped."""
        if self.sigma_v == 0.0:
            return np.zeros(count)
        values = rng.normal(0.0, self.sigma_v, count)
        bound = self.max_droop_v
        return np.clip(values, -bound, bound, out=values)

