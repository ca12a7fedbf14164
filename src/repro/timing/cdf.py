"""Timing-error probability CDFs and their runtime grid compilation.

From the DTA arrival statistics of one instruction we derive, per ALU
endpoint, the cumulative distribution function of the timing-error
probability over clock frequency: ``P_{E,V,I}(f) = v_f / n_I`` (paper
Section 3.4, Fig. 2).

Two views are provided:

* :class:`EndpointCdfs` -- the exact empirical CDFs, queried by period
  or frequency (used for plots, tables and tests);
* :class:`CdfGrid` -- a dense period-grid compilation of every
  instruction's CDFs, used by the statistical fault injector: a
  (instruction, grid row) entry holds the per-endpoint probabilities
  and the any-endpoint fault probability the injector's per-cycle fast
  path tests, and the grid caches the entry's conditional sampler,
  which only a faulting cycle needs.  A characterization compiles one
  grid, on first use by model C, so one row index serves every
  instruction, and every injector built on the characterization
  shares the grid's samplers.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.fi.sampling import BitSampler


@dataclass
class EndpointCdfs:
    """Empirical per-endpoint timing-error CDFs for one instruction.

    Attributes:
        mnemonic: instruction these statistics belong to.
        vdd: characterization supply voltage.
        row_max_sorted: (n,) per-cycle worst critical period, sorted
            ascending (drives the any-endpoint probability).
        critical_rows: (n, 32) the raw per-cycle critical periods in
            row-max sorted order: the matrix a stored characterization
            holds, from which the other views are derived.
    """

    mnemonic: str
    vdd: float
    row_max_sorted: np.ndarray
    critical_rows: np.ndarray

    @classmethod
    def from_critical(cls, mnemonic: str, vdd: float,
                      critical_ps: np.ndarray) -> "EndpointCdfs":
        """Build from a DTA (n_cycles, 32) critical-period matrix."""
        if critical_ps.ndim != 2:
            raise ValueError("critical_ps must be 2-D (cycles, endpoints)")
        row_max = critical_ps.max(axis=1)
        order = np.argsort(row_max)
        return cls(
            mnemonic=mnemonic,
            vdd=vdd,
            row_max_sorted=row_max[order],
            critical_rows=critical_ps[order],
        )

    @cached_property
    def critical_sorted(self) -> np.ndarray:
        """(32, n) critical periods [ps], each endpoint row sorted
        ascending; built on first use (only :meth:`error_probs` reads
        it)."""
        return np.sort(self.critical_rows.T, axis=1)

    @property
    def n_cycles(self) -> int:
        return self.critical_rows.shape[0]

    @property
    def n_endpoints(self) -> int:
        return self.critical_rows.shape[1]

    def error_probs(self, period_ps: float) -> np.ndarray:
        """Per-endpoint violation probability at a clock period."""
        n = self.n_cycles
        counts = np.array([
            n - np.searchsorted(row, period_ps, side="right")
            for row in self.critical_sorted
        ])
        return counts / n

    def any_error_prob(self, period_ps: float) -> float:
        """Probability that at least one endpoint violates at a period."""
        n = self.n_cycles
        index = np.searchsorted(self.row_max_sorted, period_ps,
                                side="right")
        return float(n - index) / n

    def error_probs_at_frequency(self, frequency_hz: float) -> np.ndarray:
        """Per-endpoint violation probability at a clock frequency."""
        return self.error_probs(1e12 / frequency_hz)

    def poff_frequency_hz(self) -> float:
        """Lowest frequency with a non-zero violation probability."""
        return 1e12 / float(self.row_max_sorted[-1])


@dataclass
class CdfGrid:
    """Dense period-grid compilation of several instructions' CDFs.

    Attributes:
        mnemonics: the instructions, in the order of the first axis.
        periods: (G,) ascending clock-period grid [ps], shared by every
            instruction.
        probs: (M, G, 32) per-endpoint violation probabilities.
        p_any: (M, G) probability that at least one endpoint violates,
            endpoints independent: ``1 - prod(1 - probs[m, g])``.
        first_quiet_rows: (M,) each instruction's first row where every
            endpoint's probability is 0.  Violation probabilities only
            fall as the period grows, so every later row is quiet too.
    """

    mnemonics: tuple[str, ...]
    periods: np.ndarray
    probs: np.ndarray
    p_any: np.ndarray = field(init=False)
    first_quiet_rows: np.ndarray = field(init=False)

    @classmethod
    def compile(cls, tables: Sequence[EndpointCdfs], period_min_ps: float,
                period_max_ps: float, points: int = 2048) -> "CdfGrid":
        """Sample every table's CDFs onto one dense period grid."""
        if period_min_ps <= 0 or period_max_ps <= period_min_ps:
            raise ValueError("bad grid period range")
        periods = np.linspace(period_min_ps, period_max_ps, points)
        n_endpoints = tables[0].n_endpoints
        probs = np.empty((len(tables), points, n_endpoints))
        # Bin b of an endpoint counts its cycles whose critical period
        # exceeds exactly the grid periods below index b; summing the
        # bins above row g counts the cycles that violate at periods[g].
        offsets = (points + 1) * np.arange(n_endpoints)
        for table, table_probs in zip(tables, probs):
            bins = np.searchsorted(periods, table.critical_rows, "left")
            counts = np.bincount((bins + offsets).ravel(),
                                 minlength=n_endpoints * (points + 1))
            exceeding = np.cumsum(
                counts.reshape(n_endpoints, points + 1)[:, :0:-1], axis=1)
            table_probs[:] = exceeding[:, ::-1].T / table.n_cycles
        return cls(mnemonics=tuple(table.mnemonic for table in tables),
                   periods=periods, probs=probs)

    def __post_init__(self) -> None:
        # Equals repro.fi.sampling.any_probability(probs[m, g]) bit for
        # bit on every row, the value a row's sampler carries.  Built one
        # instruction at a time: no temporary as large as ``probs``.
        self.p_any = np.array([1.0 - np.prod(1.0 - table, axis=1)
                               for table in self.probs])
        self.first_quiet_rows = np.any(self.probs > 0.0, axis=2).sum(axis=1)
        # The injector's fast path uses plain-Python bisect on a list,
        # which is faster than numpy for scalar lookups.
        self._period_list = self.periods.tolist()
        self._samplers: dict[tuple[int, int], BitSampler] = {}

    def row_index(self, period_ps: float) -> int:
        """Grid row whose probabilities apply at an effective period.

        Periods below the grid clamp to the most pessimistic row;
        periods above the grid return -1 (no violations possible).
        """
        if period_ps >= self._period_list[-1]:
            return -1
        index = bisect_left(self._period_list, period_ps) - 1
        return max(index, 0)

    def row_indices(self, periods_ps: np.ndarray) -> np.ndarray:
        """:meth:`row_index` of every period in an array."""
        rows = np.full(len(periods_ps), -1)
        on_grid = periods_ps < self.periods[-1]
        rows[on_grid] = np.maximum(np.searchsorted(
            self.periods, periods_ps[on_grid], "left") - 1, 0)
        return rows

    def sampler(self, mnemonic_id: int, row: int) -> BitSampler:
        """Conditional :class:`~repro.fi.sampling.BitSampler` of one
        instruction's row.

        Built on first use and kept, so a characterization builds each
        row's sampler at most once for all its injectors.
        """
        sampler = self._samplers.get((mnemonic_id, row))
        if sampler is None:
            # Imported here: repro.fi imports this module's package.
            from repro.fi.sampling import BitSampler
            sampler = self._samplers[mnemonic_id, row] = \
                BitSampler.from_probs(self.probs[mnemonic_id, row])
        return sampler
