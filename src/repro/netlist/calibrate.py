"""Calibration of per-unit sizing against the case-study timing targets.

The paper's processor is a placed & routed 28 nm design whose maximum
clock frequency at 0.7 V is 707 MHz, limited by the 32 ALU endpoints of
the execution stage, with the constraint strategy of [14] guaranteeing
that everything else is much faster.  Synthesis reaches such targets by
gate sizing; we model sizing as one uniform delay scale per functional
unit and solve for the scales that place each unit's STA limit at a
chosen target period.

The default targets put the multiplier exactly at the 707 MHz STA
limit and stagger the other units below it in the same order the
paper's Fig. 2/4 imply (adder close behind the multiplier, shifter and
logic comfortably fast), while the relative arrival profile *within*
each unit -- which bit fails first, how operand data excites paths --
remains purely structural.
"""

from __future__ import annotations

from repro.netlist.alu import AluNetlist
from repro.netlist.library import VDD_REF
from repro.timing.sta import compute_envelope

#: Target STA-limited clock period [ps] per unit at 0.7 V (including
#: clock-to-Q, output mux and setup).  1414.4 ps = 1 / 707.1 MHz for the
#: multiplier, the paper's critical path.  The adder lands at ~769 MHz,
#: consistent with first 32-bit add failures appearing around 746 MHz
#: under voltage noise (Fig. 4); shifter and logic never fail in the
#: plotted ranges, as in the paper.
DEFAULT_TARGETS_PS: dict[str, float] = {
    "multiplier": 1414.4,
    "adder": 1300.0,
    "shifter": 1050.0,
    "logic": 700.0,
}


class CalibrationError(ValueError):
    """Raised when a target period is infeasible for a unit."""


def calibrate_alu(alu: AluNetlist,
                  targets_ps: dict[str, float] | None = None,
                  vdd: float = VDD_REF) -> dict[str, float]:
    """Set ``alu.unit_scales`` so each unit meets its target period.

    Args:
        alu: the ALU to calibrate (mutated in place).
        targets_ps: per-unit target period [ps]; defaults to the
            case-study targets.
        vdd: voltage at which the targets are defined.

    Returns:
        The solved per-unit scale factors.

    The target period decomposes as ``clk_to_q + scale * path + mux +
    setup``; the combinational path delay is linear in the sizing
    scale, so each unit's scale has a closed form.
    """
    targets = dict(DEFAULT_TARGETS_PS)
    if targets_ps:
        targets.update(targets_ps)
    library = alu.library
    fixed = (library.clk_to_q(vdd) + alu.mux_delay_ps(vdd)
             + library.setup(vdd))
    scales: dict[str, float] = {}
    for name, unit in alu.units.items():
        target = targets[name]
        budget = target - fixed
        if budget <= 0:
            raise CalibrationError(
                f"unit {name!r}: target {target} ps leaves no budget "
                f"for logic (fixed overhead {fixed:.1f} ps)")
        envelope = compute_envelope(
            unit.plan, unit.gate_delays(library, vdd, scale=1.0))
        endpoints = [net for bus in unit.output_names
                     for net in unit.output_nets(bus)]
        path = float(envelope.max_rows[unit.plan.rows[endpoints]].max())
        if path <= 0:
            raise CalibrationError(f"unit {name!r} has no timing path")
        scales[name] = budget / path
    alu.unit_scales.update(scales)
    return scales


def calibrated_alu(config=None, library=None,
                   targets_ps: dict[str, float] | None = None,
                   vdd: float = VDD_REF) -> AluNetlist:
    """Build an :class:`AluNetlist` and calibrate it in one step."""
    alu = AluNetlist(config=config, library=library)
    calibrate_alu(alu, targets_ps, vdd)
    return alu


def verify_calibration(alu: AluNetlist,
                       targets_ps: dict[str, float] | None = None,
                       vdd: float = VDD_REF,
                       tolerance: float = 1e-6) -> dict[str, float]:
    """Recompute each unit's STA period and check it meets its target.

    Returns the measured per-unit periods; raises
    :class:`CalibrationError` on any mismatch beyond ``tolerance``
    (relative).
    """
    targets = dict(DEFAULT_TARGETS_PS)
    if targets_ps:
        targets.update(targets_ps)
    setup = alu.library.setup(vdd)
    measured = {}
    for name, arrivals in alu.endpoint_sta(vdd).items():
        period = float(arrivals.max()) + setup
        measured[name] = period
        target = targets[name]
        if abs(period - target) > tolerance * target:
            raise CalibrationError(
                f"unit {name!r}: measured {period:.2f} ps vs "
                f"target {target:.2f} ps")
    return measured
