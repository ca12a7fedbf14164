"""Fault injector interface and fault semantics.

All four timing-error models (A, B, B+, C) implement one contract: the
CPU calls ``on_alu(mnemonic, result)`` for every FI-eligible
instruction inside the benchmark's FI window, and the injector returns
the (possibly corrupted) 32-bit value that gets latched into the
EX-stage endpoint register.

Two fault semantics model what a timing violation does to an endpoint
flip-flop:

* ``flip`` -- the affected bit inverts (the conventional register-bit
  FI abstraction, and the paper's framing); default.
* ``stale`` -- the flip-flop re-latches its previous value on the
  affected bit (the late data edge missed the capture window).

The distinction is an extension knob for sensitivity studies; both
corrupt only bits reported by the model's fault mask.

Golden-run speculation: before a Monte-Carlo trial runs in the ISS, the
runner hands :meth:`FaultInjector.speculate` the FI-window ALU mnemonic
sequence of the kernel's fault-free run.  A model that can prove every
``fault_mask`` call of that sequence returns 0 -- consuming its random
streams exactly as those calls would -- returns True, and the trial is
the golden run.  Otherwise it leaves its state untouched and returns
False, and the trial runs live.
"""

from __future__ import annotations

import abc

import numpy as np

MASK32 = 0xFFFFFFFF

#: ALU ops a model examines in its first vectorized speculation step;
#: each later step doubles, so a trial whose first fault comes early
#: pays only for the steps up to it.
SPECULATE_CHUNK = 256

FAULT_SEMANTICS = ("flip", "stale")


class FaultInjector(abc.ABC):
    """Base class for all timing-error injection models.

    Attributes:
        fault_count: total corrupted bits so far in this run.
        faulty_cycles: cycles with at least one corrupted bit.
        alu_cycles: FI-eligible instructions seen in the FI window.
    """

    #: Short model tag ("A", "B", "B+", "C") for reports.
    model_name = "?"

    def __init__(self, semantics: str = "flip"):
        if semantics not in FAULT_SEMANTICS:
            raise ValueError(
                f"unknown fault semantics {semantics!r}; "
                f"expected one of {FAULT_SEMANTICS}")
        self.semantics = semantics
        self.fault_count = 0
        self.faulty_cycles = 0
        self.alu_cycles = 0
        self._last_latched = 0

    def begin_run(self) -> None:
        """Reset per-run counters (called by the CPU before execution)."""
        self.fault_count = 0
        self.faulty_cycles = 0
        self.alu_cycles = 0
        self._last_latched = 0

    @abc.abstractmethod
    def fault_mask(self, mnemonic: str) -> int:
        """Bit mask of endpoints violated this cycle (0 = no fault)."""

    def speculate(self, mnemonic_ids: np.ndarray) -> bool:
        """Settle a whole fault-free run without the ISS, if provable.

        ``mnemonic_ids`` indexes :data:`repro.isa.instructions.ALU_MNEMONICS`
        in the order the golden run executed its FI-window ALU ops.  An
        override returns True only after consuming its random state
        exactly as ``fault_mask`` would over that sequence with every
        mask 0 (and leaves the counters as the run would); if any mask
        could be non-zero it restores its state and returns False.
        The default proves nothing and touches nothing.
        """
        return False

    def _settled(self, alu_cycles: int) -> bool:
        """Counters of a fault-free run of ``alu_cycles`` ALU ops."""
        self.begin_run()
        self.alu_cycles = alu_cycles
        return True

    def on_alu(self, mnemonic: str, result: int) -> int:
        """CPU hook: pass an EX-stage result through the fault model."""
        self.alu_cycles += 1
        mask = self.fault_mask(mnemonic)
        if mask:
            self.faulty_cycles += 1
            self.fault_count += mask.bit_count()
            if self.semantics == "flip":
                result = (result ^ mask) & MASK32
            else:
                result = ((result & ~mask)
                          | (self._last_latched & mask)) & MASK32
        self._last_latched = result
        return result


class NullInjector(FaultInjector):
    """Injector that never faults; useful for baselines and profiling."""

    model_name = "none"

    def fault_mask(self, mnemonic: str) -> int:
        return 0

    def speculate(self, mnemonic_ids: np.ndarray) -> bool:
        return self._settled(len(mnemonic_ids))
