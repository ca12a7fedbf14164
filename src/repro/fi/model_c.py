"""Model C: the proposed instruction-aware statistical fault injection.

This is the paper's contribution (Section 3.4, Fig. 3).  Each cycle
with an FI-eligible instruction in the execute stage:

1. a CDF scaling factor is derived from the clock frequency and the
   per-cycle supply-voltage noise through the fitted Vdd-delay curve
   (implemented as an *effective clock period*);
2. the timing-error probabilities ``P_{E,V,I}(f)`` of all 32 endpoints
   are read from the scaled CDF matching the executing instruction and
   the characterization voltage;
3. faults are injected per endpoint with those probabilities.

Two endpoint-correlation modes are provided:

* ``independent`` (default, the paper's step 3): each endpoint draws
  its own Bernoulli with probability ``P_{E,V,I}``;
* ``joint``: a whole characterization cycle is resampled from the DTA
  statistics, preserving the correlations between endpoints that share
  logic cones (an extension of the paper's model; marginals match the
  CDFs exactly either way).

The per-cycle fast path costs one stream read, one bisect into the
period grid every ALU mnemonic shares, one read of the characterization's
any-endpoint fault probability, and one uniform draw; the conditional
sampling only runs on actual fault cycles, with the row's sampler the
characterization keeps for all its injectors.
:meth:`StatisticalInjector.next_fault` replays that fast path over the
golden ALU sequence in numpy slices: it reads a slice's fault
probabilities from one dense (mnemonic, row) table, finds the first
faulting op with :func:`~repro.fi.base.first_hit`, samples the mask as
the live call would, and gives the slice's unread periods back to the
stream.
"""

from __future__ import annotations

import numpy as np

from repro.fi.base import SCAN_CHUNK, FaultInjector, first_hit
from repro.fi.streams import EffectivePeriodStream
from repro.isa.instructions import ALU_MNEMONICS
from repro.netlist.alu import AluNetlist
from repro.timing.characterize import (
    AluCharacterization,
    CharacterizationConfig,
    get_characterization,
)
from repro.timing.noise import VoltageNoise
from repro.timing.voltage import VddDelayModel

CORRELATION_MODES = ("independent", "joint")


class StatisticalInjector(FaultInjector):
    """Instruction-aware statistical fault injection (model C).

    Args:
        characterization: per-instruction CDF tables from DTA.
        frequency_hz: simulated clock frequency.
        noise: supply-voltage noise distribution.
        vdd_operating: supply the core runs at; may differ from the
            characterization voltage (the fitted Vdd-delay curve scales
            the CDFs accordingly, e.g. for voltage overscaling).
        vdd_model: fitted Vdd-delay curve.
        rng: random generator.
        correlation: ``"independent"`` or ``"joint"`` (see module doc).
        semantics: fault semantics.
    """

    model_name = "C"

    def __init__(self, characterization: AluCharacterization,
                 frequency_hz: float, noise: VoltageNoise,
                 vdd_operating: float | None = None,
                 vdd_model: VddDelayModel | None = None,
                 rng: np.random.Generator | None = None,
                 correlation: str = "independent",
                 semantics: str = "flip"):
        super().__init__(semantics)
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if correlation not in CORRELATION_MODES:
            raise ValueError(
                f"unknown correlation mode {correlation!r}; "
                f"expected one of {CORRELATION_MODES}")
        if vdd_model is None:
            raise ValueError(
                "a fitted VddDelayModel is required (use "
                "StatisticalInjector.for_alu for a turnkey setup)")
        self.characterization = characterization
        self.frequency_hz = frequency_hz
        self.noise = noise
        self.correlation = correlation
        self.vdd_characterized = characterization.config.vdd
        self.vdd_operating = (vdd_operating
                              if vdd_operating is not None
                              else self.vdd_characterized)
        self._rng = rng or np.random.default_rng()
        self._grids = characterization.grids
        self._cdfs = characterization.cdfs
        self._stream = EffectivePeriodStream(
            period_ps=1e12 / frequency_hz,
            vdd_operating=self.vdd_operating,
            vdd_characterized=self.vdd_characterized,
            vdd_model=vdd_model,
            noise=noise,
            rng=self._rng)
        # One row index serves every mnemonic, per op and in a scan, so
        # every ALU mnemonic needs a grid and all grids one period grid
        # (characterizations compile them that way).
        grids = [self._grids.get(mnemonic) for mnemonic in ALU_MNEMONICS]
        missing = [mnemonic for mnemonic, grid
                   in zip(ALU_MNEMONICS, grids) if grid is None]
        if missing:
            raise ValueError(f"no CDF grid for {missing}")
        if not all(np.array_equal(grid.periods, grids[0].periods)
                   for grid in grids):
            raise ValueError("the ALU mnemonics' CDF grids must share "
                             "one period grid")
        self._row_grid = grids[0]
        # (mnemonic id, row) -> the any-endpoint fault probability.
        self._p_any = np.stack([grid.p_any for grid in grids])
        self._draw_limit = self._draw_limits(grids)

    def _draw_limits(self, grids) -> np.ndarray:
        """Per-mnemonic longest period whose fast path draws a uniform.

        A cycle draws exactly when its period is at most its mnemonic's
        limit: on the grid, and either mapping to a row before the
        grid's first quiet row (independent mode) or below the worst
        sampled cycle (joint mode).
        """
        periods = self._row_grid.periods
        limits = []
        for mnemonic, grid in zip(ALU_MNEMONICS, grids):
            if self.correlation == "independent":
                quiet = grid.first_quiet_row
                limit = periods[quiet] if quiet < len(periods) else np.inf
            else:
                worst = self._cdfs[mnemonic].row_max_sorted[-1]
                limit = np.nextafter(worst, -np.inf)
            limits.append(min(limit, np.nextafter(periods[-1], -np.inf)))
        return np.array(limits)

    @classmethod
    def for_alu(cls, alu: AluNetlist, frequency_hz: float,
                noise: VoltageNoise,
                vdd_operating: float | None = None,
                characterization_config: CharacterizationConfig | None = None,
                rng: np.random.Generator | None = None,
                correlation: str = "independent",
                semantics: str = "flip") -> "StatisticalInjector":
        """Build an injector from an ALU, characterizing on first use."""
        characterization = get_characterization(
            alu, characterization_config)
        return cls(
            characterization=characterization,
            frequency_hz=frequency_hz,
            noise=noise,
            vdd_operating=vdd_operating,
            vdd_model=VddDelayModel.from_alu_sta(alu),
            rng=rng,
            correlation=correlation,
            semantics=semantics)

    # -- mask generation ----------------------------------------------------

    def fault_mask(self, mnemonic: str) -> int:
        period_eff = self._stream.next()
        row = self._row_grid.row_index(period_eff)
        if row < 0:
            return 0
        if self.correlation == "joint":
            return self._joint_mask(mnemonic, period_eff)
        grid = self._grids[mnemonic]
        p_any = grid.p_any[row]
        if p_any <= 0.0 or self._rng.random() >= p_any:
            return 0
        return grid.sampler(row).sample_mask(self._rng)

    def _joint_mask(self, mnemonic: str, period_eff: float) -> int:
        cdfs = self._cdfs[mnemonic]
        n = cdfs.n_cycles
        first_violating = int(np.searchsorted(
            cdfs.row_max_sorted, period_eff, side="right"))
        violating = n - first_violating
        if violating <= 0 or self._rng.random() >= violating / n:
            return 0
        return self._joint_sample(cdfs, first_violating, period_eff)

    def _joint_sample(self, cdfs, first_violating: int,
                      period_eff: float) -> int:
        """Resample one violating characterization cycle's mask."""
        index = int(self._rng.integers(first_violating, cdfs.n_cycles))
        bits = np.flatnonzero(cdfs.critical_rows[index] > period_eff)
        mask = 0
        for bit in bits:
            mask |= 1 << int(bit)
        return mask

    # -- fault schedules --------------------------------------------------

    def next_fault(self, mnemonic_ids: np.ndarray,
                   start: int) -> tuple[int, int]:
        for periods in self._stream.take(len(mnemonic_ids) - start,
                                         SCAN_CHUNK):
            ids = mnemonic_ids[start:start + len(periods)]
            drawing, probs = self._draw_probs(ids, periods)
            draw = first_hit(self._rng, len(probs), probs)
            if draw is not None:
                hit = int(drawing[draw])
                self._stream.give_back(len(periods) - hit - 1)
                return start + hit, self._hit_mask(
                    ALU_MNEMONICS[ids[hit]], periods[hit])
            start += len(periods)
        return len(mnemonic_ids), 0

    def _hit_mask(self, mnemonic: str, period_eff: float) -> int:
        """Mask of a cycle whose fast-path uniform fell below its odds."""
        if self.correlation == "independent":
            row = self._row_grid.row_index(period_eff)
            return self._grids[mnemonic].sampler(row).sample_mask(self._rng)
        cdfs = self._cdfs[mnemonic]
        return self._joint_sample(cdfs, int(np.searchsorted(
            cdfs.row_max_sorted, period_eff, side="right")), period_eff)

    def snapshot(self) -> object:
        return self._stream.snapshot()

    def restore(self, snapshot: object) -> None:
        self._stream.restore(snapshot)

    def _draw_probs(self, ids: np.ndarray,
                    periods: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ops whose fast path draws a uniform, and each one's odds.

        Returns the drawing ops' positions in ``ids`` and the fault
        probability each one's uniform is tested against, in order.
        """
        drawing = np.flatnonzero(periods <= self._draw_limit[ids])
        ids, periods = ids[drawing], periods[drawing]
        if self.correlation == "independent":
            rows = self._row_grid.row_indices(periods)
            return drawing, self._p_any[ids, rows]
        probs = np.empty(len(ids))
        for mid in np.unique(ids).tolist():
            at = ids == mid
            cdfs = self._cdfs[ALU_MNEMONICS[mid]]
            n = cdfs.n_cycles
            violating = n - np.searchsorted(cdfs.row_max_sorted,
                                            periods[at], side="right")
            probs[at] = violating / n
        return drawing, probs
