"""Static verification plane: STA bounds, netlist lint, runtime oracle.

The paper's argument is that *dynamic* timing analysis reveals margin
that *static* analysis over-approximates -- which makes a static
analyzer the natural independent oracle for the dynamic engines: a
classical min/max arrival-time pass over the already-levelized
:class:`~repro.netlist.plan.CompiledPlan` yields, per net, a sound
envelope that every dynamic arrival must fall inside, no matter which
of the two engines (or glitch models) produced it.

Three coordinated layers:

* :mod:`repro.analysis.sta` -- STA reports over the envelope of
  :mod:`repro.timing.sta` (the one STA, which also signs off the ALU):
  per-endpoint slack against a clock period, top-K critical-path
  extraction, and the persistable :class:`~repro.analysis.sta.StaReport`
  artifact (store kind ``"sta_report"``).
* :mod:`repro.analysis.lint` -- structural netlist diagnostics
  (combinational loops, floating inputs, undriven/multiply-driven
  nets, dead gates, fanout histogram) behind ``repro lint``.
* :mod:`repro.analysis.oracle` -- the opt-in runtime bounds check
  (``REPRO_CHECK_BOUNDS=1``): every :meth:`Circuit.propagate` asserts
  its arrivals against the static envelope, exactly.
"""

from repro.analysis.oracle import BoundsViolation, bounds_check_enabled
from repro.analysis.sta import StaReport, build_report, unit_report
from repro.timing.sta import compute_envelope

__all__ = [
    "BoundsViolation",
    "StaReport",
    "bounds_check_enabled",
    "build_report",
    "compute_envelope",
    "unit_report",
]
