"""STA reports and critical paths over the compiled-plan envelope.

The envelope itself -- one static min/max arrival pass over a
:class:`~repro.netlist.plan.CompiledPlan`, and the repository's only
STA -- lives in :mod:`repro.timing.sta`, where the ALU's endpoint table
reads it too.  This module turns one envelope into a sign-off view: the
persistable :class:`StaReport` artifact with per-bit bounds, slack
against a clock, and the top-K critical paths behind each output bus.

Critical paths
--------------

The rank-1 path per endpoint follows the backward argmax of ``max``
and is re-walked forward with the same IEEE add sequence the envelope
used, so its reported arrival is *bitwise* equal to the max bound
(property-tested).  Ranks 2..K come from a best-first (A*-style)
k-best search using ``max`` as an exact potential.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar

import numpy as np

from repro.netlist.plan import CompiledPlan
from repro.store.serialize import decode, encode
from repro.timing.sta import Envelope, compute_envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netlist.alu import AluNetlist
    from repro.netlist.circuit import Circuit

#: Safety valve for the k-best search: the potential is exact, so real
#: reports finish in O(K * depth) pops; the cap only guards degenerate
#: hand-built netlists.
_MAX_POPS = 250_000


# ---------------------------------------------------------------------------
# Critical-path extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathStep:
    """One hop of a critical path: the net and how it was reached."""

    net: int
    kind: str  # gate kind, or "input" for the launching primary input
    delay_ps: float
    arrival_ps: float

    def to_json(self) -> dict[str, Any]:
        return {"net": self.net, "kind": self.kind,
                "delay_ps": self.delay_ps, "arrival_ps": self.arrival_ps}

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "PathStep":
        return cls(net=int(payload["net"]), kind=str(payload["kind"]),
                   delay_ps=float(payload["delay_ps"]),
                   arrival_ps=float(payload["arrival_ps"]))


@dataclass(frozen=True)
class CriticalPath:
    """One input-to-endpoint path, gate by gate, forward-walked."""

    bus: str
    bit: int
    arrival_ps: float
    steps: tuple[PathStep, ...]

    def to_json(self) -> dict[str, Any]:
        return {"bus": self.bus, "bit": self.bit,
                "arrival_ps": self.arrival_ps,
                "steps": [step.to_json() for step in self.steps]}

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "CriticalPath":
        return cls(bus=str(payload["bus"]), bit=int(payload["bit"]),
                   arrival_ps=float(payload["arrival_ps"]),
                   steps=tuple(PathStep.from_json(step)
                               for step in payload["steps"]))


def _row_structs(plan: CompiledPlan, gate_kinds: list[str]) -> \
        tuple[list[tuple[int, ...]], list[str]]:
    """Per-row predecessor rows and gate kind (empty/"" on non-gates)."""
    preds: list[tuple[int, ...]] = [() for _ in range(plan.n_nets)]
    kinds: list[str] = [""] * plan.n_nets
    for op in plan.ops:
        n = op.n_gates
        for j in range(n):
            row = op.lo + j
            legs = [int(op.ins[j]), int(op.ins[n + j])]
            if op.family == "mux":
                legs.append(int(op.ins[2 * n + j]))
            preds[row] = tuple(legs)
            kinds[row] = gate_kinds[int(op.gidx[j])]
    return preds, kinds


def _greedy_path(row: int, preds: list[tuple[int, ...]],
                 max_rows: np.ndarray) -> tuple[int, ...]:
    """Backward argmax walk; returns rows in input..endpoint order.

    Following the argmax predecessor retraces exactly the reduction
    chain the envelope's maximum-reduce took, which is what makes the
    forward re-walk bitwise equal to the max bound.
    """
    path = [row]
    while True:
        capable = [p for p in preds[path[-1]] if max_rows[p] > -np.inf]
        if not capable:
            break
        path.append(max(capable, key=lambda p: float(max_rows[p])))
    return tuple(reversed(path))


def _k_best_suffixes(endpoints: list[tuple[int, int]],
                     preds: list[tuple[int, ...]],
                     row_delay: np.ndarray, max_rows: np.ndarray,
                     k: int) -> list[tuple[tuple[int, ...], int]]:
    """Best-first k-best path search across a bus's endpoint rows.

    Heap entries carry the accumulated downstream delay ``g`` (gates
    already traversed backward) and are ordered by ``g + max[row]`` --
    an exact potential, so completions pop in (float-rounded) arrival
    order and the first K completions are the top-K paths.
    """
    heap: list[tuple[float, int, int, tuple[int, ...], int, float]] = []
    counter = 0
    for row, bit in endpoints:
        if max_rows[row] > -np.inf:
            heapq.heappush(heap, (-float(max_rows[row]), counter, row,
                                  (row,), bit, 0.0))
            counter += 1
    done: list[tuple[tuple[int, ...], int]] = []
    pops = 0
    while heap and len(done) < k and pops < _MAX_POPS:
        _, _, row, suffix, bit, g = heapq.heappop(heap)
        pops += 1
        capable = [p for p in preds[row] if max_rows[p] > -np.inf]
        if not capable:
            done.append((suffix, bit))
            continue
        g_next = g + float(row_delay[row])
        for p in capable:
            heapq.heappush(heap, (-(g_next + float(max_rows[p])), counter,
                                  p, (p,) + suffix, bit, g_next))
            counter += 1
    return done


def _walk_forward(rows_path: tuple[int, ...], bus: str, bit: int,
                  net_of_row: np.ndarray, row_delay: np.ndarray,
                  kinds: list[str], input_arrival: float) -> CriticalPath:
    """Forward re-walk: same add sequence as the envelope reduce."""
    steps = []
    arrival = input_arrival
    for index, row in enumerate(rows_path):
        if index == 0:
            delay = 0.0
            kind = "input" if kinds[row] == "" else kinds[row]
        else:
            delay = float(row_delay[row])
            kind = kinds[row]
            arrival = arrival + delay
        steps.append(PathStep(net=int(net_of_row[row]), kind=kind,
                              delay_ps=delay, arrival_ps=arrival))
    return CriticalPath(bus=bus, bit=bit, arrival_ps=arrival,
                        steps=tuple(steps))


def critical_paths(circuit: "Circuit", delays: np.ndarray,
                   envelope: Envelope, k: int = 3) -> list[CriticalPath]:
    """Top-K critical paths per output bus, most critical first.

    The rank-1 path of each bus is the greedy argmax walk, so
    ``paths[0].arrival_ps`` equals the bus's max bound bitwise; the
    remaining ranks come from the k-best search and are sorted by
    their forward-walked arrivals.
    """
    if k <= 0:
        return []
    plan = circuit.plan
    preds, kinds = _row_structs(plan, circuit.gate_kinds)
    row_delay = plan.row_delays(np.asarray(delays, dtype=np.float64))
    net_of_row = plan.net_of_row
    max_rows = envelope.max_rows
    out: list[CriticalPath] = []
    for name in circuit.output_names:
        endpoint_rows = [(int(plan.rows[net]), bit) for bit, net
                         in enumerate(circuit.output_nets(name))]
        capable = [(row, bit) for row, bit in endpoint_rows
                   if max_rows[row] > -np.inf]
        if not capable:
            continue
        best_row, best_bit = max(
            capable, key=lambda e: (float(max_rows[e[0]]), -e[1]))
        greedy = (_greedy_path(best_row, preds, max_rows), best_bit)
        suffixes = _k_best_suffixes(capable, preds, row_delay, max_rows, k)
        if greedy in suffixes:
            suffixes.remove(greedy)
        suffixes = [greedy] + suffixes[:k - 1]
        walked = [_walk_forward(rows_path, name, bit, net_of_row,
                                row_delay, kinds, envelope.input_arrival)
                  for rows_path, bit in suffixes]
        # Stable sort: the greedy path achieves the exact maximum, so
        # it stays rank 1 (ties share the bitwise-equal arrival).
        walked.sort(key=lambda path: -path.arrival_ps)
        out.extend(walked)
    return out


# ---------------------------------------------------------------------------
# The persistable report artifact
# ---------------------------------------------------------------------------

@dataclass
class StaReport:
    """Signed-off static timing view of one circuit at one corner.

    Arrival bounds are in the same frame as ``Circuit.propagate``
    output (launch included, capture overhead excluded);
    ``overhead_ps`` carries whatever the capture side adds (output mux
    plus flip-flop setup for the ALU units), so
    ``slack = clock - overhead - max_arrival``.
    """

    SCHEMA: ClassVar[int] = 1

    circuit: str
    n_gates: int
    n_nets: int
    n_levels: int
    input_arrival_ps: float
    overhead_ps: float
    clock_ps: float | None
    bus_min_ps: dict[str, np.ndarray]
    bus_max_ps: dict[str, np.ndarray]
    paths: tuple[CriticalPath, ...]

    @property
    def worst_arrival_ps(self) -> float:
        """Largest finite max bound across all output bits."""
        worst = 0.0
        for bounds in self.bus_max_ps.values():
            finite = bounds[np.isfinite(bounds)]
            if finite.size:
                worst = max(worst, float(finite.max()))
        return worst

    @property
    def min_period_ps(self) -> float:
        """Smallest clock period the bounds sign off on."""
        return self.worst_arrival_ps + self.overhead_ps

    def slack_ps(self, bus: str) -> np.ndarray | None:
        """Per-bit slack against the clock (None without a clock).

        Bits that can never switch have no arrival to constrain; they
        report the full ``clock - overhead`` budget.
        """
        if self.clock_ps is None:
            return None
        bounds = self.bus_max_ps[bus]
        capped = np.where(np.isfinite(bounds), bounds, 0.0)
        return self.clock_ps - self.overhead_ps - capped

    @property
    def min_slack_ps(self) -> float | None:
        if self.clock_ps is None:
            return None
        slacks = [self.slack_ps(bus) for bus in sorted(self.bus_max_ps)]
        return min(float(s.min()) for s in slacks) if slacks else None

    def render(self) -> str:
        """Human-readable sign-off report."""
        lines = [
            f"STA report: {self.circuit}",
            f"  gates {self.n_gates}  nets {self.n_nets}"
            f"  levels {self.n_levels}",
            f"  launch (clk-to-Q) {self.input_arrival_ps:8.2f} ps",
            f"  capture overhead  {self.overhead_ps:8.2f} ps",
            f"  worst arrival     {self.worst_arrival_ps:8.2f} ps"
            f"  (min period {self.min_period_ps:.2f} ps)",
        ]
        if self.clock_ps is not None:
            slack = self.min_slack_ps
            assert slack is not None
            verdict = "MET" if slack >= 0.0 else "VIOLATED"
            lines.append(f"  clock {self.clock_ps:8.2f} ps"
                         f"  min slack {slack:+8.2f} ps  [{verdict}]")
        for bus in sorted(self.bus_max_ps):
            bounds = self.bus_max_ps[bus]
            finite = bounds[np.isfinite(bounds)]
            static_bits = int(bounds.size - finite.size)
            worst = float(finite.max()) if finite.size else 0.0
            note = f"  ({static_bits} never-switching)" if static_bits \
                else ""
            lines.append(f"  bus {bus}: {bounds.size} bits, max arrival "
                         f"{worst:.2f} ps{note}")
        for rank, path in enumerate(self.paths, start=1):
            slack_note = ""
            if self.clock_ps is not None:
                slack = self.clock_ps - self.overhead_ps - path.arrival_ps
                slack_note = f"  slack {slack:+.2f} ps"
            lines.append(f"  path #{rank} -> {path.bus}[{path.bit}]: "
                         f"{len(path.steps) - 1} gates, arrival "
                         f"{path.arrival_ps:.2f} ps{slack_note}")
            for step in path.steps:
                lines.append(f"    n{step.net:<6} {step.kind:<6} "
                             f"+{step.delay_ps:7.2f} ps  @ "
                             f"{step.arrival_ps:9.2f} ps")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": self.SCHEMA,
            "circuit": self.circuit,
            "n_gates": self.n_gates,
            "n_nets": self.n_nets,
            "n_levels": self.n_levels,
            "input_arrival_ps": self.input_arrival_ps,
            "overhead_ps": self.overhead_ps,
            "clock_ps": self.clock_ps,
            "bus_min_ps": encode(self.bus_min_ps),
            "bus_max_ps": encode(self.bus_max_ps),
            "paths": [path.to_json() for path in self.paths],
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "StaReport":
        return cls(
            circuit=str(payload["circuit"]),
            n_gates=int(payload["n_gates"]),
            n_nets=int(payload["n_nets"]),
            n_levels=int(payload["n_levels"]),
            input_arrival_ps=float(payload["input_arrival_ps"]),
            overhead_ps=float(payload["overhead_ps"]),
            clock_ps=(None if payload["clock_ps"] is None
                      else float(payload["clock_ps"])),
            bus_min_ps=decode(payload["bus_min_ps"]),
            bus_max_ps=decode(payload["bus_max_ps"]),
            paths=tuple(CriticalPath.from_json(path)
                        for path in payload["paths"]),
        )


def build_report(circuit: "Circuit", delays: np.ndarray,
                 input_arrival_ps: float = 0.0,
                 overhead_ps: float = 0.0,
                 clock_ps: float | None = None,
                 k_paths: int = 3) -> StaReport:
    """Run the full static pass over one circuit at one delay corner."""
    plan = circuit.plan
    envelope = compute_envelope(plan, delays, input_arrival_ps)
    bus_min: dict[str, np.ndarray] = {}
    bus_max: dict[str, np.ndarray] = {}
    for name in circuit.output_names:
        rows = plan.rows[circuit.output_nets(name)]
        bus_min[name] = envelope.min_rows[rows].copy()
        bus_max[name] = envelope.max_rows[rows].copy()
    paths = critical_paths(circuit, delays, envelope, k=k_paths)
    return StaReport(
        circuit=circuit.name,
        n_gates=circuit.n_gates,
        n_nets=circuit.n_nets,
        n_levels=plan.n_levels,
        input_arrival_ps=float(input_arrival_ps),
        overhead_ps=float(overhead_ps),
        clock_ps=None if clock_ps is None else float(clock_ps),
        bus_min_ps=bus_min,
        bus_max_ps=bus_max,
        paths=tuple(paths),
    )


def unit_report(alu: "AluNetlist", unit: str, vdd: float,
                clock_ps: float | None = None,
                k_paths: int = 3) -> StaReport:
    """Sign-off report of one ALU functional unit at one voltage.

    The unit's delays at its calibrated sizing scale, launched at the
    flip-flop clock-to-Q delay and captured through the output mux
    into the setup window -- the same frame as the ALU's endpoint
    table.
    """
    circuit = alu.units[unit]
    delays = circuit.gate_delays(alu.library, vdd, alu.unit_scales[unit])
    return build_report(
        circuit, delays,
        input_arrival_ps=alu.library.clk_to_q(vdd),
        overhead_ps=alu.mux_delay_ps(vdd) + alu.library.setup(vdd),
        clock_ps=clock_ps, k_paths=k_paths)
