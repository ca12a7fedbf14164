"""Model A: conventional fixed-probability random fault injection.

Every endpoint bit flips independently with one fixed probability per
cycle, with no link to the circuit, the operating point, or the
instruction being executed (paper Section 3.1).  This is the
single-event-upset-style baseline whose lack of physical grounding the
paper criticizes: its one parameter cannot be derived from frequency,
voltage, or noise conditions.
"""

from __future__ import annotations

import numpy as np

from repro.fi.base import SCAN_CHUNK, FaultInjector, first_hit
from repro.fi.sampling import BitSampler
from repro.netlist.alu import N_ENDPOINTS


class FixedProbabilityInjector(FaultInjector):
    """Fixed per-bit, per-cycle fault probability (model A).

    Args:
        p_bit: probability that any given endpoint bit flips in any
            given FI-eligible cycle.
        rng: random generator.
        semantics: fault semantics (see :class:`FaultInjector`).
    """

    model_name = "A"

    def __init__(self, p_bit: float, rng: np.random.Generator | None = None,
                 semantics: str = "flip"):
        super().__init__(semantics)
        if not 0.0 <= p_bit <= 1.0:
            raise ValueError(f"p_bit must be in [0, 1], got {p_bit}")
        self.p_bit = p_bit
        self._rng = rng or np.random.default_rng()
        self._sampler = BitSampler.from_probs(
            np.full(N_ENDPOINTS, p_bit))

    def fault_mask(self, mnemonic: str) -> int:
        p_any = self._sampler.p_any
        if p_any <= 0.0 or self._rng.random() >= p_any:
            return 0
        return self._sampler.sample_mask(self._rng)

    def next_fault(self, mnemonic_ids: np.ndarray,
                   start: int) -> tuple[int, int]:
        n, p_any = len(mnemonic_ids), self._sampler.p_any
        size = SCAN_CHUNK
        while p_any > 0.0 and start < n:
            count = min(size, n - start)
            hit = first_hit(self._rng, count, p_any)
            if hit is not None:
                return start + hit, self._sampler.sample_mask(self._rng)
            start += count
            size *= 2
        return n, 0

    def snapshot(self) -> object:
        return self._rng.bit_generator.state

    def restore(self, snapshot: object) -> None:
        self._rng.bit_generator.state = snapshot
