"""Per-cycle effective-period stream under supply-voltage noise.

Models B+ and C share the same noise plumbing: each cycle draws an
independent supply-noise value, converts it through the fitted
Vdd-delay curve into a delay scale factor ``k``, and compares scaled
path delays against the clock period.  Scaling all delays by ``k`` is
equivalent to scaling the clock period by ``1/k``, so the stream hands
out *effective periods* ``T_eff = T / k`` directly.

The stream also handles static voltage offsets: when the operating
voltage differs from the characterization voltage (Fig. 7's
voltage-overscaling at fixed frequency), the same fitted curve provides
the offset's scale factor.

Values are produced in vectorized blocks; the per-cycle cost inside the
injector is one array index.  For fault schedules,
:meth:`EffectivePeriodStream.take` hands out the same values in slices,
:meth:`~EffectivePeriodStream.give_back` returns the unread tail of the
last slice once a scan has found its fault (so the stream sits right
after the faulting cycle), and :meth:`~EffectivePeriodStream.snapshot` /
``restore`` roll the stream and its RNG back when a live run leaves the
scanned sequence.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.timing.noise import VoltageNoise
from repro.timing.voltage import VddDelayModel


class EffectivePeriodStream:
    """Blocked per-cycle effective clock periods under voltage noise.

    Args:
        period_ps: nominal clock period [ps] (1e12 / frequency).
        vdd_operating: supply voltage the core runs at.
        vdd_characterized: voltage of the timing data being scaled
            (STA corner for model B+, CDF characterization voltage for
            model C).
        vdd_model: fitted Vdd-delay curve.
        noise: supply-noise distribution.
        rng: random generator for the noise stream.
        block: vectorized refill size.
    """

    def __init__(self, period_ps: float, vdd_operating: float,
                 vdd_characterized: float, vdd_model: VddDelayModel,
                 noise: VoltageNoise, rng: np.random.Generator,
                 block: int = 65536):
        if period_ps <= 0:
            raise ValueError("clock period must be positive")
        if block <= 0:
            raise ValueError("block size must be positive")
        self.period_ps = period_ps
        self.vdd_operating = vdd_operating
        self.vdd_characterized = vdd_characterized
        self._vdd_model = vdd_model
        self._noise = noise
        self._rng = rng
        self._block = block
        self._constant: float | None = None
        self._values: np.ndarray | None = None
        self._cursor = 0
        if noise.sigma_v == 0.0:
            factor = float(vdd_model.scale_factor(
                vdd_operating, vdd_characterized))
            self._constant = period_ps / factor
        else:
            self._values = self._refill()

    def _refill(self) -> np.ndarray:
        vdd = self._noise.sample(self._block, self._rng)
        vdd += self.vdd_operating
        factors = self._vdd_model.scale_factor(vdd, self.vdd_characterized)
        return np.divide(self.period_ps, factors, out=factors)

    def next(self) -> float:
        """Effective period [ps] for the next cycle."""
        if self._constant is not None:
            return self._constant
        if self._cursor >= self._block:
            self._values = self._refill()
            self._cursor = 0
        value = self._values[self._cursor]
        self._cursor += 1
        return value

    def take(self, n: int, first: int) -> Iterator[np.ndarray]:
        """The next ``n`` periods, in slices of ``first`` values, doubling.

        Consumes the stream exactly as ``n`` calls to :meth:`next`.  A
        block refill happens only when the slice after a seam is
        requested, so random draws the caller makes between slices
        land in the RNG where the per-cycle path makes them.
        """
        size = first
        while n > 0:
            if self._constant is not None:
                chunk = np.full(min(n, size), self._constant)
            else:
                if self._cursor >= self._block:
                    self._values = self._refill()
                    self._cursor = 0
                start = self._cursor
                self._cursor = min(start + n, start + size, self._block)
                chunk = self._values[start:self._cursor]
            n -= len(chunk)
            size *= 2
            yield chunk

    def give_back(self, count: int) -> None:
        """Unread the last ``count`` values of the latest :meth:`take` slice.

        A slice never spans a block seam, so the values are still in
        the current block; afterwards the stream stands as ``count``
        fewer calls to :meth:`next` would leave it.
        """
        if self._constant is None:
            if not 0 <= count <= self._cursor:
                raise ValueError(f"cannot give back {count} values")
            self._cursor -= count

    def snapshot(self) -> tuple:
        """Stream position plus RNG state, for :meth:`restore`."""
        return self._rng.bit_generator.state, self._values, self._cursor

    def restore(self, snapshot: tuple) -> None:
        """Roll the stream and its RNG back to a :meth:`snapshot`."""
        state, self._values, self._cursor = snapshot
        self._rng.bit_generator.state = state
