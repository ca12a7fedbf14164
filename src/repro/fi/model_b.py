"""Model B: static-timing-based deterministic fault injection.

Per paper Section 3.2: STA of the placed & routed netlist provides the
worst-case path delay to every endpoint at the chosen operating
condition.  Here that is the ALU's endpoint table
(:meth:`~repro.netlist.alu.AluNetlist.endpoint_sta`): the max bound of
the compiled-plan envelope of :mod:`repro.timing.sta`, computed once
per voltage and shared with model B+ and the STA frequency limit.
Whenever an FI-eligible instruction activates the execute stage *and*
the clock period is shorter than an endpoint's worst-case delay (plus
setup), a fault is injected into that endpoint -- deterministically,
every such cycle.

Because the worst path delay to each endpoint is taken over *all*
instructions (the model is not instruction aware) and actual path
excitation is ignored, the model is overly pessimistic: the FI rate
jumps as soon as the clock exceeds the STA limit, producing the cliff
behavior of the paper's Fig. 1(a).
"""

from __future__ import annotations

import numpy as np

from repro.fi.base import FaultInjector
from repro.netlist.alu import AluNetlist
from repro.netlist.library import VDD_REF


def endpoint_worst_sta(alu: AluNetlist, vdd: float) -> np.ndarray:
    """Worst-case critical period per endpoint bit [ps].

    The maximum over all functional units of the static arrival to each
    endpoint, plus the capture setup time -- the STA view model B uses.
    """
    per_unit = alu.endpoint_sta(vdd)
    worst = np.maximum.reduce(list(per_unit.values()))
    return worst + alu.library.setup(vdd)


class StaInjector(FaultInjector):
    """Deterministic STA period-violation injection (model B).

    Args:
        alu: calibrated ALU netlist.
        frequency_hz: simulated clock frequency.
        vdd: operating supply voltage (STA corner).
        semantics: fault semantics.
    """

    model_name = "B"

    def __init__(self, alu: AluNetlist, frequency_hz: float,
                 vdd: float = VDD_REF, semantics: str = "flip"):
        super().__init__(semantics)
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        self.frequency_hz = frequency_hz
        self.vdd = vdd
        period = 1e12 / frequency_hz
        critical = endpoint_worst_sta(alu, vdd)
        mask = 0
        for bit, crit in enumerate(critical):
            if crit > period:
                mask |= 1 << bit
        self._mask = mask

    @property
    def violation_mask(self) -> int:
        """The constant per-cycle endpoint violation mask."""
        return self._mask

    def fault_mask(self, mnemonic: str) -> int:
        return self._mask

    def next_fault(self, mnemonic_ids: np.ndarray,
                   start: int) -> tuple[int, int]:
        if self._mask and start < len(mnemonic_ids):
            return start, self._mask
        return len(mnemonic_ids), 0
