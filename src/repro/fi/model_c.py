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

Each endpoint faults by its own Bernoulli draw with probability
``P_{E,V,I}``.  The per-cycle fast path costs one stream read, one
bisect into the period grid of the characterization's one fault
table, one read of the instruction's any-endpoint fault probability,
and one uniform draw; the conditional sampling only runs on actual
fault cycles, with the row's sampler the characterization keeps for
all its injectors.
:meth:`StatisticalInjector.next_fault` replays that fast path over the
golden ALU sequence in numpy slices: it reads a slice's fault
probabilities from the table's dense (mnemonic, row) any-endpoint
probabilities, finds the first faulting op with
:func:`~repro.fi.base.first_hit`, samples the mask as the live call
would, and gives the slice's unread periods back to the stream.
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
        semantics: fault semantics.

    The characterization's fault table must cover every ALU mnemonic.
    """

    model_name = "C"

    def __init__(self, characterization: AluCharacterization,
                 frequency_hz: float, noise: VoltageNoise,
                 vdd_operating: float | None = None,
                 vdd_model: VddDelayModel | None = None,
                 rng: np.random.Generator | None = None,
                 semantics: str = "flip"):
        super().__init__(semantics)
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if vdd_model is None:
            raise ValueError(
                "a fitted VddDelayModel is required (use "
                "StatisticalInjector.for_alu for a turnkey setup)")
        self.characterization = characterization
        self.frequency_hz = frequency_hz
        self.noise = noise
        self.vdd_characterized = characterization.config.vdd
        self.vdd_operating = (vdd_operating
                              if vdd_operating is not None
                              else self.vdd_characterized)
        self._rng = rng or np.random.default_rng()
        self._grid = grid = characterization.grid
        if grid.mnemonics != ALU_MNEMONICS:
            missing = sorted(set(ALU_MNEMONICS) - set(grid.mnemonics))
            raise ValueError(f"the CDF grid covers {grid.mnemonics}, "
                             f"not the ALU mnemonics (missing {missing})")
        self._stream = EffectivePeriodStream(
            period_ps=1e12 / frequency_hz,
            vdd_operating=self.vdd_operating,
            vdd_characterized=self.vdd_characterized,
            vdd_model=vdd_model,
            noise=noise,
            rng=self._rng)
        # mnemonic -> (its id, its any-endpoint fault probability per row).
        self._rows = {mnemonic: (mid, grid.p_any[mid])
                      for mid, mnemonic in enumerate(ALU_MNEMONICS)}
        self._draw_limit = self._draw_limits()

    def _draw_limits(self) -> np.ndarray:
        """Per-mnemonic longest period whose fast path draws a uniform.

        A cycle draws exactly when its period is at most its mnemonic's
        limit: on the grid and mapping to a row before the mnemonic's
        first quiet row.
        """
        periods = self._grid.periods
        limits = np.append(periods, np.inf)[self._grid.first_quiet_rows]
        return np.minimum(limits, np.nextafter(periods[-1], -np.inf))

    @classmethod
    def for_alu(cls, alu: AluNetlist, frequency_hz: float,
                noise: VoltageNoise,
                vdd_operating: float | None = None,
                characterization_config: CharacterizationConfig | None = None,
                rng: np.random.Generator | None = None,
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
            semantics=semantics)

    # -- mask generation ----------------------------------------------------

    def fault_mask(self, mnemonic: str) -> int:
        row = self._grid.row_index(self._stream.next())
        if row < 0:
            return 0
        mid, p_any = self._rows[mnemonic]
        p = p_any[row]
        if p <= 0.0 or self._rng.random() >= p:
            return 0
        return self._grid.sampler(mid, row).sample_mask(self._rng)

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
                row = self._grid.row_index(periods[hit])
                return start + hit, self._grid.sampler(
                    int(ids[hit]), row).sample_mask(self._rng)
            start += len(periods)
        return len(mnemonic_ids), 0

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
        rows = self._grid.row_indices(periods[drawing])
        return drawing, self._grid.p_any[ids[drawing], rows]
