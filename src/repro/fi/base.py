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

Fault schedules: a model's masks depend only on the mnemonic and its
own random streams, never on the ALU result, so the faults a trial
would draw over the kernel's golden (fault-free) FI-window ALU sequence
can be computed ahead of the ISS.  :meth:`FaultInjector.next_fault`
returns the next one from a given op, consuming the streams exactly as
the live ``fault_mask`` calls up to and including it would.  Between
calls the streams stand where ``start`` live calls leave them, so the
Monte-Carlo runner (:mod:`repro.mc.runner`) can run a trial through a
counting hook that calls the model only around its faults, and fall
back to per-op :meth:`~FaultInjector.on_alu` from any point where the
live run leaves the golden sequence (after a :meth:`restore` and a
replay of the hit-free golden ops since the search began).
"""

from __future__ import annotations

import abc

import numpy as np

MASK32 = 0xFFFFFFFF

#: ALU ops a model examines in its first vectorized scan step; each
#: later step doubles, so a search whose fault comes early pays only
#: for the steps up to it.
SCAN_CHUNK = 256

FAULT_SEMANTICS = ("flip", "stale")


def first_hit(rng: np.random.Generator, count: int,
              probs: np.ndarray | float) -> int | None:
    """Index of the first of ``count`` uniforms below its probability.

    Draws the uniforms as one vector.  On a hit, rewinds the generator
    and redraws up to and including the hit's uniform, so it stands
    where scalar draws stopping at the hit leave it and the caller can
    sample the fault's mask where the live call samples it.  Returns
    None, with all ``count`` uniforms drawn, when none hits.
    """
    state = rng.bit_generator.state
    hits = np.flatnonzero(rng.random(count) < probs)
    if not hits.size:
        return None
    hit = int(hits[0])
    rng.bit_generator.state = state
    rng.random(hit + 1)
    return hit


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

    def next_fault(self, mnemonic_ids: np.ndarray,
                   start: int) -> tuple[int, int] | None:
        """The first fault at or after golden op ``start``, or None.

        ``mnemonic_ids`` indexes :data:`repro.isa.instructions.ALU_MNEMONICS`
        in the order the golden run executed its FI-window ALU ops, and
        the random streams stand where ``start`` live ``fault_mask``
        calls over it leave them.  Returns ``(index, mask)`` of the
        first non-zero mask, with the streams advanced exactly as the
        live calls over ``mnemonic_ids[start:index + 1]`` advance them,
        or ``(len(mnemonic_ids), 0)`` with the streams past the whole
        sequence when no op from ``start`` on faults.  The default
        cannot schedule, touches nothing and returns None: every trial
        of such a model runs per-op.
        """
        return None

    def snapshot(self) -> object:
        """The random state ``fault_mask`` consumes, for :meth:`restore`."""
        return None

    def restore(self, snapshot: object) -> None:
        """Roll the random state back to a :meth:`snapshot`."""

    def corrupt(self, mask: int, result: int) -> int:
        """Apply a non-zero fault mask to a result and count it."""
        self.faulty_cycles += 1
        self.fault_count += mask.bit_count()
        if self.semantics == "flip":
            return (result ^ mask) & MASK32
        return ((result & ~mask) | (self._last_latched & mask)) & MASK32

    def on_alu(self, mnemonic: str, result: int) -> int:
        """CPU hook: pass an EX-stage result through the fault model."""
        self.alu_cycles += 1
        mask = self.fault_mask(mnemonic)
        if mask:
            result = self.corrupt(mask, result)
        self._last_latched = result
        return result


class NullInjector(FaultInjector):
    """Injector that never faults; useful for baselines and profiling."""

    model_name = "none"

    def fault_mask(self, mnemonic: str) -> int:
        return 0

    def next_fault(self, mnemonic_ids: np.ndarray,
                   start: int) -> tuple[int, int]:
        return len(mnemonic_ids), 0
