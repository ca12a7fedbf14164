"""Model B+: STA-based fault injection with supply-voltage noise.

Extends model B (paper Section 3.3): each cycle draws an independent
supply-noise value, converts it into a delay scale factor through the
fitted Vdd-delay curve, and applies the model-B period-violation test
against the *modulated* path delays.  The onset frequency of fault
injection drops below the STA limit (the worst 2-sigma droop stretches
all delays), and the FI rate near the onset is much lower than model
B's because only tail noise values trigger violations -- but the model
remains instruction-blind, so applications still hit a hard failure
threshold (Fig. 1(b), 1(c)).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.fi.base import SCAN_CHUNK, FaultInjector
from repro.fi.model_b import endpoint_worst_sta
from repro.fi.streams import EffectivePeriodStream
from repro.netlist.alu import AluNetlist
from repro.netlist.library import VDD_REF
from repro.timing.noise import VoltageNoise
from repro.timing.voltage import VddDelayModel


class StaNoiseInjector(FaultInjector):
    """STA violation test under per-cycle noise-modulated delays (B+).

    Args:
        alu: calibrated ALU netlist.
        frequency_hz: simulated clock frequency.
        noise: supply-voltage noise distribution.
        vdd: operating supply voltage (also the STA corner).
        vdd_model: fitted Vdd-delay curve; derived from the ALU's STA
            over the characterized corners when omitted.
        rng: random generator for the noise stream.
        semantics: fault semantics.
    """

    model_name = "B+"

    def __init__(self, alu: AluNetlist, frequency_hz: float,
                 noise: VoltageNoise, vdd: float = VDD_REF,
                 vdd_model: VddDelayModel | None = None,
                 rng: np.random.Generator | None = None,
                 semantics: str = "flip"):
        super().__init__(semantics)
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        self.frequency_hz = frequency_hz
        self.vdd = vdd
        self.noise = noise
        rng = rng or np.random.default_rng()
        vdd_model = vdd_model or VddDelayModel.from_alu_sta(alu)
        critical = endpoint_worst_sta(alu, vdd)
        # Sort endpoints by criticality; at an effective period T_eff
        # the violated set is exactly the endpoints with critical > T_eff,
        # so the mask is a function of how many sorted entries exceed it.
        order = np.argsort(critical)
        self._sorted_critical = critical[order].tolist()
        masks = [0]
        mask = 0
        for bit in reversed(order.tolist()):
            mask |= 1 << bit
            masks.append(mask)
        self._masks_by_count = masks
        self._stream = EffectivePeriodStream(
            period_ps=1e12 / frequency_hz,
            vdd_operating=vdd,
            vdd_characterized=vdd,
            vdd_model=vdd_model,
            noise=noise,
            rng=rng)

    def fault_mask(self, mnemonic: str) -> int:
        return self._mask_at(self._stream.next())

    def _mask_at(self, period_eff: float) -> int:
        sorted_critical = self._sorted_critical
        violated = len(sorted_critical) - bisect_right(
            sorted_critical, period_eff)
        return self._masks_by_count[violated]

    def next_fault(self, mnemonic_ids: np.ndarray,
                   start: int) -> tuple[int, int]:
        # No endpoint violates while the period clears the worst one.
        worst = self._sorted_critical[-1]
        for periods in self._stream.take(len(mnemonic_ids) - start,
                                         SCAN_CHUNK):
            hits = np.flatnonzero(periods < worst)
            if hits.size:
                hit = int(hits[0])
                self._stream.give_back(len(periods) - hit - 1)
                return start + hit, self._mask_at(periods[hit])
            start += len(periods)
        return len(mnemonic_ids), 0

    def snapshot(self) -> object:
        return self._stream.snapshot()

    def restore(self, snapshot: object) -> None:
        self._stream.restore(snapshot)
