"""The execution-stage ALU: four functional units behind a result mux.

This is the netlist-level model of the case study's execute stage.
The 32 result bits latched at the EX/MEM pipeline boundary are the *ALU
endpoints* -- by the paper's constraint strategy they are the only
timing-critical flip-flops in the core, so all timing characterization
(STA for models B/B+, DTA for model C) happens here.

Structure:

* ``adder`` -- add/subtract unit (carry-select by default),
* ``multiplier`` -- low-word carry-save array multiplier,
* ``shifter`` -- shared barrel shifter,
* ``logic`` -- AND/OR/XOR unit,
* a per-bit 4:1 output mux (two MUX2 levels) merging the unit results
  onto the endpoint register inputs, modeled as a fixed delay adder
  since the mux selects are stable during back-to-back operations of
  the same type.

Every FI-eligible mnemonic maps to one unit plus a stimulus builder
that formats architectural operands into the unit's input buses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.isa.instructions import ALU_MNEMONICS
from repro.netlist.adders import ADDER_KINDS, adder_circuit
from repro.netlist.circuit import Circuit
from repro.netlist.library import CellLibrary, VDD_REF
from repro.netlist.logic_unit import OP_AND, OP_OR, OP_XOR, logic_circuit
from repro.netlist.multiplier import multiplier_circuit
from repro.netlist.shifter import shifter_circuit
from repro.timing.sta import compute_envelope

#: Number of ALU endpoint flip-flops (the EX-stage result register).
N_ENDPOINTS = 32

#: Levels of 2:1 muxes between unit outputs and the endpoint register.
OUTPUT_MUX_LEVELS = 2

StimulusBuilder = Callable[[np.ndarray, np.ndarray], dict[str, np.ndarray]]


def _adder_stimulus(sub: int) -> StimulusBuilder:
    def build(a: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
        return {"a": a, "b": b, "sub": np.full_like(a, sub)}
    return build


def _mul_stimulus(a: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
    return {"a": a, "b": b}


def _shift_stimulus(right: int, arith: int) -> StimulusBuilder:
    def build(a: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
        return {
            "a": a,
            "amount": b & 31,
            "right": np.full_like(a, right),
            "arith": np.full_like(a, arith),
        }
    return build


def _logic_stimulus(op: int) -> StimulusBuilder:
    def build(a: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
        return {"a": a, "b": b, "op": np.full_like(a, op)}
    return build


@dataclass
class AluConfig:
    """Build-time configuration of the ALU netlist.

    Attributes:
        width: data-path width (32 for the case study).
        adder_kind: adder topology (see :data:`ADDER_KINDS`).
    """

    width: int = 32
    adder_kind: str = "carry-select"

    def __post_init__(self) -> None:
        if self.adder_kind not in ADDER_KINDS:
            raise ValueError(f"unknown adder kind {self.adder_kind!r}")


class AluNetlist:
    """The assembled execution-stage ALU with its timing views.

    Args:
        config: build-time configuration.
        library: cell timing library.
        unit_scales: per-unit sizing scales; normally set afterwards by
            :func:`repro.netlist.calibrate.calibrate_alu`.
    """

    UNIT_NAMES = ("adder", "multiplier", "shifter", "logic")

    def __init__(self, config: AluConfig | None = None,
                 library: CellLibrary | None = None,
                 unit_scales: dict[str, float] | None = None):
        self.config = config or AluConfig()
        self.library = library or CellLibrary()
        width = self.config.width
        self.units: dict[str, Circuit] = {
            "adder": adder_circuit(width, self.config.adder_kind),
            "multiplier": multiplier_circuit(width),
            "shifter": shifter_circuit(width),
            "logic": logic_circuit(width),
        }
        self.unit_scales: dict[str, float] = dict.fromkeys(
            self.UNIT_NAMES, 1.0)
        if unit_scales:
            self.unit_scales.update(unit_scales)
        self._dispatch: dict[str, tuple[str, StimulusBuilder]] = \
            self._build_dispatch()
        #: (vdd, unit scales) -> read-only endpoint STA table.
        self._sta_tables: dict[tuple, dict[str, np.ndarray]] = {}

    def _build_dispatch(self) -> dict[str, tuple[str, StimulusBuilder]]:
        dispatch: dict[str, tuple[str, StimulusBuilder]] = {
            "l.add": ("adder", _adder_stimulus(0)),
            "l.addi": ("adder", _adder_stimulus(0)),
            "l.sub": ("adder", _adder_stimulus(1)),
            "l.mul": ("multiplier", _mul_stimulus),
            "l.muli": ("multiplier", _mul_stimulus),
            "l.sll": ("shifter", _shift_stimulus(0, 0)),
            "l.slli": ("shifter", _shift_stimulus(0, 0)),
            "l.srl": ("shifter", _shift_stimulus(1, 0)),
            "l.srli": ("shifter", _shift_stimulus(1, 0)),
            "l.sra": ("shifter", _shift_stimulus(1, 1)),
            "l.srai": ("shifter", _shift_stimulus(1, 1)),
            "l.and": ("logic", _logic_stimulus(OP_AND)),
            "l.andi": ("logic", _logic_stimulus(OP_AND)),
            "l.or": ("logic", _logic_stimulus(OP_OR)),
            "l.ori": ("logic", _logic_stimulus(OP_OR)),
            "l.xor": ("logic", _logic_stimulus(OP_XOR)),
            "l.xori": ("logic", _logic_stimulus(OP_XOR)),
        }
        missing = set(ALU_MNEMONICS) - set(dispatch)
        if missing:
            raise AssertionError(
                f"FI-eligible mnemonics without a unit mapping: {missing}")
        return dispatch

    # -- structure -------------------------------------------------------

    @property
    def mnemonics(self) -> tuple[str, ...]:
        """All FI-eligible mnemonics this ALU implements."""
        return tuple(sorted(self._dispatch))

    def unit_of(self, mnemonic: str) -> str:
        """Functional unit exercised by a mnemonic."""
        try:
            return self._dispatch[mnemonic][0]
        except KeyError:
            raise KeyError(
                f"{mnemonic!r} is not an FI-eligible instruction") from None

    def total_gates(self) -> int:
        return sum(unit.n_gates for unit in self.units.values())

    # -- timing helpers -----------------------------------------------------

    def mux_delay_ps(self, vdd: float = VDD_REF) -> float:
        """Delay of the output-mux levels in front of the endpoints."""
        return OUTPUT_MUX_LEVELS * self.library.delay_ps("MUX2", vdd)

    def endpoint_sta(self, vdd: float = VDD_REF) -> dict[str, np.ndarray]:
        """Static arrival per unit and endpoint bit, incl. output mux.

        Each unit's ``result`` rows of its STA envelope
        (:func:`repro.timing.sta.compute_envelope` at the unit's sizing
        scale, launched at clock-to-Q), plus the output-mux delay.
        Setup time is not included; callers compare
        ``arrival + setup`` against the clock period.

        The table is computed once per ``(vdd, unit_scales)`` and its
        arrays are read-only: recalibrating the units changes the key,
        so a lookup is never served a stale table.
        """
        key = (vdd, tuple(self.unit_scales.items()))
        table = self._sta_tables.get(key)
        if table is None:
            with obs.span("timing.sta", vdd=float(vdd)):
                table = self._endpoint_table(vdd)
            self._sta_tables[key] = table
        return dict(table)

    def _endpoint_table(self, vdd: float) -> dict[str, np.ndarray]:
        launch = self.library.clk_to_q(vdd)
        mux = self.mux_delay_ps(vdd)
        table = {}
        for name, unit in self.units.items():
            delays = unit.gate_delays(self.library, vdd,
                                      self.unit_scales[name])
            envelope = compute_envelope(unit.plan, delays, launch)
            rows = unit.plan.rows[unit.output_nets("result")]
            bits = envelope.max_rows[rows] + mux
            bits.flags.writeable = False
            table[name] = bits
        return table

    def worst_sta_period_ps(self, vdd: float = VDD_REF) -> float:
        """Minimum safe clock period [ps]: worst arrival + setup."""
        per_unit = self.endpoint_sta(vdd)
        worst = max(float(bits.max()) for bits in per_unit.values())
        return worst + self.library.setup(vdd)

    def sta_limit_hz(self, vdd: float = VDD_REF) -> float:
        """STA frequency limit [Hz] at a supply voltage."""
        return 1e12 / self.worst_sta_period_ps(vdd)

    # -- functional/timing evaluation ---------------------------------------

    def compute(self, mnemonic: str, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
        """Functionally evaluate one mnemonic on operand arrays."""
        unit_name, build = self._dispatch[mnemonic]
        a = np.atleast_1d(np.asarray(a, dtype=np.uint64))
        b = np.atleast_1d(np.asarray(b, dtype=np.uint64))
        outputs = self.units[unit_name].evaluate(build(a, b))
        return outputs["result"]

    def propagate(self, mnemonic: str, prev_ops: tuple[np.ndarray, np.ndarray],
                  new_ops: tuple[np.ndarray, np.ndarray],
                  vdd: float = VDD_REF,
                  glitch_model: str = "sensitized",
                  engine: str = "compiled") -> \
            tuple[np.ndarray, np.ndarray]:
        """Two-vector timing simulation of one mnemonic.

        Args:
            mnemonic: FI-eligible instruction.
            prev_ops: (a, b) operand arrays of the previous cycle.
            new_ops: (a, b) operand arrays of the current cycle.
            vdd: supply voltage of the timing view.
            glitch_model: event model, see :meth:`Circuit.propagate`.
            engine: circuit engine (``"compiled"`` uses the unit's
                levelized plan and reuses its block workspace across
                calls; ``"reference"`` is the per-gate loop).

        Returns:
            ``(values, arrivals)``: the new result words (N,) and the
            endpoint data arrival times (32, N) in ps, including
            clock-to-Q launch and the output mux, excluding setup.
        """
        unit_name, build = self._dispatch[mnemonic]
        unit = self.units[unit_name]
        delays = unit.gate_delays(self.library, vdd,
                                  self.unit_scales[unit_name])
        launch = self.library.clk_to_q(vdd)
        prev = build(np.atleast_1d(np.asarray(prev_ops[0], dtype=np.uint64)),
                     np.atleast_1d(np.asarray(prev_ops[1], dtype=np.uint64)))
        new = build(np.atleast_1d(np.asarray(new_ops[0], dtype=np.uint64)),
                    np.atleast_1d(np.asarray(new_ops[1], dtype=np.uint64)))
        outputs, arrivals = unit.propagate(prev, new, delays, launch,
                                           glitch_model, engine=engine)
        changed = arrivals["result"] > 0.0
        return outputs["result"], np.where(
            changed, arrivals["result"] + self.mux_delay_ps(vdd), 0.0)
