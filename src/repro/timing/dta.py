"""Dynamic timing analysis (DTA) of the ALU netlist.

DTA extracts the *statistics of data arrival times* at every ALU
endpoint, conditioned on the executing instruction, by driving the
gate-level netlist with a randomized characterization kernel and
running the two-vector timing simulation cycle by cycle (paper
Section 3.4, methodology of [14]).

Each characterization cycle applies a fresh random operand pair for the
instruction under analysis while the previous cycle's operands form the
"from" state, exactly like back-to-back execution of that instruction
in the pipeline's execute stage.  Operand distributions respect the
instruction's encoding (e.g. 16-bit sign-extended immediates).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.isa.instructions import spec_for
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.netlist.alu import AluNetlist
from repro.netlist.library import VDD_REF


def sample_operands(mnemonic: str, count: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random operand streams (a, b) matching an instruction's encoding.

    Register operands are uniform 32-bit values.  The second operand of
    an immediate-form instruction is drawn from its 16-bit immediate
    range (sign- or zero-extended to 32 bits per the ISA spec); shift
    immediates are drawn from 0..31.
    """
    spec = spec_for(mnemonic)
    a = rng.integers(0, 1 << 32, count, dtype=np.uint64)
    if mnemonic in ("l.slli", "l.srli", "l.srai"):
        b = rng.integers(0, 32, count, dtype=np.uint64)
    elif spec.fmt.name == "RRI":
        if spec.signed_imm:
            signed = rng.integers(-(1 << 15), 1 << 15, count,
                                  dtype=np.int64)
            b = (signed & 0xFFFFFFFF).astype(np.uint64)
        else:
            b = rng.integers(0, 1 << 16, count, dtype=np.uint64)
    else:
        b = rng.integers(0, 1 << 32, count, dtype=np.uint64)
    return a, b


@dataclass
class DtaResult:
    """Arrival statistics for one instruction at one supply voltage.

    Attributes:
        mnemonic: the characterized instruction.
        unit: functional unit it exercises.
        vdd: supply voltage of the timing view.
        critical_ps: (n_cycles, 32) array of *critical periods* per
            endpoint: data arrival (incl. clock-to-Q and output mux)
            plus the capture setup time.  A cycle violates endpoint E at
            clock period T exactly when ``critical_ps[cycle, E] > T``.
        glitch_model: event model used by the timing simulation.
    """

    mnemonic: str
    unit: str
    vdd: float
    critical_ps: np.ndarray
    glitch_model: str
    values: np.ndarray | None = None

    @property
    def n_cycles(self) -> int:
        return self.critical_ps.shape[0]

    def error_probabilities(self, period_ps: float) -> np.ndarray:
        """P_{E,V,I}(f): per-endpoint violation probability at a period.

        Computed as ``v_f / n_I`` -- the fraction of characterization
        cycles whose critical period exceeds the clock period (the
        paper's definition).
        """
        return (self.critical_ps > period_ps).mean(axis=0)


def run_dta(alu: "AluNetlist", mnemonic: str, n_cycles: int,
            vdd: float = VDD_REF, seed: int = 2016,
            block: int = 512, glitch_model: str = "sensitized",
            operands: tuple[np.ndarray, np.ndarray] | None = None,
            engine: str = "compiled") -> DtaResult:
    """Characterize one instruction's endpoint arrival statistics.

    Args:
        alu: calibrated ALU netlist.
        mnemonic: FI-eligible instruction to characterize.
        n_cycles: number of characterization cycles.
        vdd: supply voltage of the timing view.
        seed: RNG seed for the operand stream.
        block: cycles per vectorized evaluation block (bounds memory).
        glitch_model: see :meth:`Circuit.propagate`.
        operands: optional explicit (a, b) operand streams of length
            ``n_cycles + 1`` (overrides the default random sampling;
            used e.g. for restricted operand ranges in the
            instruction-characterization study, paper Section 4.1).
        engine: circuit engine, see :meth:`Circuit.propagate`.

    Returns:
        A :class:`DtaResult` with the (n_cycles, 32) critical periods
        and the functional result values per cycle.

    The result arrays are preallocated once and filled chunk by chunk;
    together with the circuit-level workspace reuse (one scratch block
    per unit, see :mod:`repro.netlist.plan`) and the per-corner delay
    tile cache, steady-state chunks run allocation-free.

    Every block is one serial propagate; parallelism lives one level
    up, in the forked campaign workers.  ``block`` is a pure
    memory/scheduling knob, never a results knob.
    """
    if n_cycles <= 0:
        raise ValueError("n_cycles must be positive")
    if os.environ.get("REPRO_FORBID_DTA"):
        # Verification hook (the DTA twin of REPRO_FORBID_MC): a
        # warm-cache fig2/fig4 rerun must be served entirely from the
        # result store, so reaching the timing simulator is a bug.
        raise RuntimeError(
            "DTA simulation attempted while REPRO_FORBID_DTA is set "
            "-- expected a result-store hit")
    unit = alu.unit_of(mnemonic)
    if operands is None:
        rng = np.random.default_rng(seed)
        a, b = sample_operands(mnemonic, n_cycles + 1, rng)
    else:
        a, b = operands
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        if a.shape[0] < n_cycles + 1 or b.shape[0] < n_cycles + 1:
            raise ValueError(
                f"explicit operand streams need {n_cycles + 1} entries")
    setup = alu.library.setup(vdd)
    critical: np.ndarray | None = None
    all_values: np.ndarray | None = None
    for start in range(0, n_cycles, block):
        stop = min(start + block, n_cycles)
        prev = (a[start:stop], b[start:stop])
        new = (a[start + 1:stop + 1], b[start + 1:stop + 1])
        values, arrivals = alu.propagate(mnemonic, prev, new, vdd,
                                         glitch_model, engine=engine)
        if critical is None:
            critical = np.empty((n_cycles, arrivals.shape[0]))
            all_values = np.empty(n_cycles, dtype=values.dtype)
        critical[start:stop] = arrivals.T
        critical[start:stop] += setup
        all_values[start:stop] = values
    return DtaResult(mnemonic=mnemonic, unit=unit, vdd=vdd,
                     critical_ps=critical,
                     glitch_model=glitch_model,
                     values=all_values)
