"""Static timing analysis over the compiled plan.

This is the repository's one STA.  It signs off the ALU (the endpoint
table behind models B and B+ of the paper's Section 3.2/3.3, the STA
frequency limit and the unit calibration, see
:meth:`repro.netlist.alu.AluNetlist.endpoint_sta`), and it is the
independent bound the runtime oracle of :mod:`repro.analysis.oracle`
holds the dynamic engines to.  Reports and critical paths built on it
live in :mod:`repro.analysis.sta`.

No simulation happens here: the analyzer is pure per-gate delay
algebra over the levelized rows of a
:class:`~repro.netlist.plan.CompiledPlan`, which makes it an
*independent* check on the two dynamic engines -- it shares their
netlist compilation but none of their event machinery.

Envelope semantics
------------------

For every net the analyzer computes a static arrival interval
``[min, max]`` with the invariant (for non-negative delays and a
non-negative input arrival):

    any dynamic arrival the propagate engines can report for the net
    is either exactly 0.0 (the net carries no event this cycle) or
    lies inside ``[min, max]``.

The recurrence runs over *event-capable* inputs only.  A net is
event-capable when some path of gates connects it to a primary input;
the constants and anything fed exclusively by them can never toggle or
glitch.  Nets that are not event-capable carry the sentinel interval
``[+inf, -inf]`` -- an empty interval, so the oracle check degenerates
to "the arrival must be 0.0" exactly as it should.  For an
event-capable gate output::

    min[out] = delay + min over event-capable inputs of min[in]
    max[out] = delay + max over event-capable inputs of max[in]

both sound for either glitch model: an output event always rides on at
least one (effective) input event, whose settle is bounded by its own
envelope by induction, and no engine ever propagates a settle larger
than the largest input settle plus the gate delay.  The sentinels make
the recurrence self-maintaining (``+inf + d = +inf``,
``-inf + d = -inf``), so the whole pass is one vectorized
minimum/maximum-reduce per plan op.

Because IEEE-754 addition and max are monotone, every engine's
arrivals satisfy the envelope *exactly* -- the oracle applies zero
tolerance.  The max bound is the classic worst-case arrival: launched
at the flip-flop clock-to-Q delay, it is the sign-off arrival that
dynamic timing analysis can never exceed (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netlist.plan import CompiledPlan


@dataclass(frozen=True)
class Envelope:
    """Static per-row arrival intervals of one (plan, delays, arrival).

    Attributes:
        input_arrival: launch time seeded on every primary input row.
        min_rows: ``(n_nets,)`` float64 lower bounds in row order;
            ``+inf`` on nets that can never carry an event.
        max_rows: ``(n_nets,)`` float64 upper bounds in row order;
            ``-inf`` on nets that can never carry an event.
    """

    input_arrival: float
    min_rows: np.ndarray
    max_rows: np.ndarray

    @property
    def can_event(self) -> np.ndarray:
        """``(n_nets,)`` bool: net reachable from a primary input."""
        return self.max_rows > -np.inf

    @property
    def worst_arrival(self) -> float:
        """Largest finite max bound (0.0 for an event-free netlist)."""
        finite = self.max_rows[self.can_event]
        return float(finite.max()) if finite.size else 0.0


def compute_envelope(plan: CompiledPlan, delays: np.ndarray,
                     input_arrival: float = 0.0) -> Envelope:
    """One topological min/max pass over the plan's levelized rows.

    ``delays`` indexes by *gate* (the same vector ``propagate``
    takes); rows are looked up through each op's ``gidx``.  Delays and
    the input arrival must be non-negative for the envelope invariant
    to hold (asserted).
    """
    delays = np.asarray(delays, dtype=np.float64)
    arrival = float(input_arrival)
    if delays.size and float(delays.min()) < 0.0:
        raise ValueError("negative gate delays break the STA envelope")
    if arrival < 0.0:
        raise ValueError("negative input arrival breaks the STA envelope")
    min_rows = np.full(plan.n_nets, np.inf)
    max_rows = np.full(plan.n_nets, -np.inf)
    # Row layout is fixed by compile_plan: constants at 0/1, primary
    # inputs next, gate outputs from the first op's lo.
    first_gate = plan.ops[0].lo if plan.ops else plan.n_nets
    min_rows[2:first_gate] = arrival
    max_rows[2:first_gate] = arrival
    for op in plan.ops:
        n = op.n_gates
        gmin = min_rows[op.ins]
        gmax = max_rows[op.ins]
        lo_in = np.minimum(gmin[:n], gmin[n:2 * n])
        hi_in = np.maximum(gmax[:n], gmax[n:2 * n])
        if op.family == "mux":
            np.minimum(lo_in, gmin[2 * n:], out=lo_in)
            np.maximum(hi_in, gmax[2 * n:], out=hi_in)
        d = delays[op.gidx]
        min_rows[op.lo:op.hi] = lo_in + d
        max_rows[op.lo:op.hi] = hi_in + d
    return Envelope(arrival, min_rows, max_rows)
