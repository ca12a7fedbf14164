"""Gate-level netlist graph with vectorized evaluation and timing.

A :class:`Circuit` is a feed-forward netlist: nets are integer ids,
gates are created in topological order (every input net must already
exist), and named input/output buses tie the netlist to the outside.

Two engines operate on a circuit:

* :meth:`Circuit.evaluate` -- functional evaluation, vectorized over a
  block of stimulus vectors (numpy boolean arrays per net).
* :meth:`Circuit.propagate` -- *two-vector timing simulation*, the core
  of dynamic timing analysis: given the previous cycle's inputs and the
  current cycle's inputs, it propagates switching events through the
  netlist and computes, per net, the settling (data arrival) time.

Event semantics (``glitch_model="sensitized"``, the default): a net
carries an event when its waveform may toggle during the cycle, i.e.
when it changes value *or* may glitch.  An input event propagates
through a gate unless it is statically masked by a stable controlling
side input (a stable 0 on an AND, a stable 1 on an OR, a stable select
on a mux pointing at the other leg, or a mux select toggle between two
stable equal data legs).  XOR-class gates never mask.  The settle time
of an event-carrying output is one gate delay after its latest
unmasked event input; event-free nets settle at 0.  This matches what
gate-level timing simulation (the paper's DTA flow) observes, where
glitches dominate arrival times in XOR-rich arithmetic.

``glitch_model="value-change"`` is the optimistic variant that tracks
only settled-value toggles; it is kept for the ablation study of how
much glitch activity contributes to timing-error rates.

Either way an arrival never exceeds the static longest path
(property-tested against STA).

Engines and the compiled plan
-----------------------------

Both engines exist in two implementations selected by the ``engine``
argument of :meth:`Circuit.evaluate` / :meth:`Circuit.propagate`:

* ``"compiled"`` (default) -- a structure-of-arrays plan built lazily
  at first use (see :mod:`repro.netlist.plan`): the netlist is
  levelized topologically and each level's gates are grouped *by kind*
  into contiguous index arrays.  Evaluation operates on one
  ``(n_nets, N)`` value/event/settle matrix with a single
  fancy-indexed numpy kernel per (level, kind) bucket -- a few hundred
  vectorized operations instead of one Python-level call per gate.
  The plan and the per-corner delay cache are invalidated lazily via a
  dirty flag set by :meth:`gate` (so incremental construction stays
  O(1) per gate) and are rebuilt on next use.  Scratch matrices are
  recycled per block width, so e.g. the DTA loop reuses one workspace
  across all of its chunks.
* ``"reference"`` -- the original per-gate loops, kept as the
  executable specification; the property suite asserts the compiled
  engine is bit-identical to it on random circuits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.netlist import plan as plan_mod
from repro.netlist.gates import GATE_KINDS, arity_of
from repro.netlist.library import CellLibrary, VDD_REF

ENGINES = ("compiled", "reference")


def bits_from_ints(values: np.ndarray, width: int) -> np.ndarray:
    """Convert an int array (N,) into a bool bit-plane array (width, N).

    Bit 0 is the least significant bit.
    """
    values = np.asarray(values, dtype=np.uint64)
    shifts = np.arange(width, dtype=np.uint64)[:, None]
    return ((values[None, :] >> shifts) & np.uint64(1)).astype(bool)


def ints_from_bits(bits: np.ndarray) -> np.ndarray:
    """Convert a bool bit-plane array (width, N) back to ints (N,)."""
    width = bits.shape[0]
    weights = (np.uint64(1) << np.arange(width, dtype=np.uint64))[:, None]
    return (bits.astype(np.uint64) * weights).sum(axis=0)


@dataclass
class _Bus:
    name: str
    nets: list[int]


class CircuitError(ValueError):
    """Raised on malformed circuit construction or bad stimulus."""


class Circuit:
    """A feed-forward gate-level netlist.

    Net ids are dense integers.  Nets 0 and 1 are reserved for the
    constants 0 and 1.  Gates must be added in topological order.
    """

    def __init__(self, name: str):
        self.name = name
        self.n_nets = 2  # nets 0/1 are constant low/high
        self._input_buses: dict[str, _Bus] = {}
        self._output_buses: dict[str, _Bus] = {}
        self._input_net_set: set[int] = set()
        self.gate_kinds: list[str] = []
        self.gate_inputs: list[tuple[int, ...]] = []
        self.gate_outputs: list[int] = []
        self._driven: set[int] = {0, 1}
        self._delay_cache: dict[tuple[float, float], np.ndarray] = {}
        self._plan: plan_mod.CompiledPlan | None = None
        self._workspaces: dict[int, plan_mod.Workspace] = {}
        self._dirty = False

    # -- construction ---------------------------------------------------

    def const(self, value: int) -> int:
        """Net id of constant 0 or 1."""
        return 1 if value else 0

    def input_bus(self, name: str, width: int) -> list[int]:
        """Declare an input bus of ``width`` bits; returns its net ids."""
        if name in self._input_buses or name in self._output_buses:
            raise CircuitError(f"duplicate bus name {name!r}")
        nets = list(range(self.n_nets, self.n_nets + width))
        self.n_nets += width
        self._input_buses[name] = _Bus(name, nets)
        self._input_net_set.update(nets)
        self._driven.update(nets)
        self._dirty = True  # the compiled plan covers input rows too
        return nets

    def gate(self, kind: str, *inputs: int) -> int:
        """Add a gate; returns the id of its (new) output net."""
        if len(inputs) != arity_of(kind):
            raise CircuitError(
                f"{kind} expects {arity_of(kind)} inputs, got {len(inputs)}")
        for net in inputs:
            if net not in self._driven:
                raise CircuitError(
                    f"gate input net {net} is not driven yet "
                    f"(gates must be added in topological order)")
        output = self.n_nets
        self.n_nets += 1
        self.gate_kinds.append(kind)
        self.gate_inputs.append(tuple(inputs))
        self.gate_outputs.append(output)
        self._driven.add(output)
        # Invalidate cached timing/plan state lazily: clearing caches on
        # every added gate would make incremental construction O(n^2).
        self._dirty = True
        return output

    def output_bus(self, name: str, nets: list[int]) -> None:
        """Declare an output bus over existing nets."""
        if name in self._output_buses or name in self._input_buses:
            raise CircuitError(f"duplicate bus name {name!r}")
        for net in nets:
            if net not in self._driven:
                raise CircuitError(f"output net {net} is not driven")
        self._output_buses[name] = _Bus(name, list(nets))

    # -- convenience composite builders ----------------------------------

    def xor3(self, a: int, b: int, c: int) -> int:
        return self.gate("XOR2", self.gate("XOR2", a, b), c)

    def majority(self, a: int, b: int, c: int) -> int:
        """Carry function of a full adder: at least two of three."""
        ab = self.gate("AND2", a, b)
        axb = self.gate("XOR2", a, b)
        c_and = self.gate("AND2", axb, c)
        return self.gate("OR2", ab, c_and)

    def full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """Returns (sum, carry-out)."""
        axb = self.gate("XOR2", a, b)
        s = self.gate("XOR2", axb, cin)
        ab = self.gate("AND2", a, b)
        bc = self.gate("AND2", axb, cin)
        cout = self.gate("OR2", ab, bc)
        return s, cout

    def half_adder(self, a: int, b: int) -> tuple[int, int]:
        """Returns (sum, carry-out)."""
        return self.gate("XOR2", a, b), self.gate("AND2", a, b)

    # -- introspection -----------------------------------------------------

    @property
    def n_gates(self) -> int:
        return len(self.gate_kinds)

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(self._input_buses)

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(self._output_buses)

    def input_width(self, name: str) -> int:
        return len(self._input_buses[name].nets)

    def input_nets(self, name: str) -> list[int]:
        return list(self._input_buses[name].nets)

    def output_nets(self, name: str) -> list[int]:
        return list(self._output_buses[name].nets)

    def cell_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for kind in self.gate_kinds:
            histogram[kind] = histogram.get(kind, 0) + 1
        return histogram

    # -- cached views (delays, compiled plan, scratch buffers) -------------

    def _flush_dirty(self) -> None:
        """Drop cached state invalidated by netlist edits (lazy)."""
        if self._dirty:
            self._delay_cache.clear()
            self._plan = None
            self._workspaces.clear()
            self._dirty = False

    @property
    def plan(self) -> plan_mod.CompiledPlan:
        """The compiled structure-of-arrays plan (built lazily)."""
        self._flush_dirty()
        if self._plan is None:
            self._plan = plan_mod.compile_plan(
                self.n_nets, self.gate_kinds, self.gate_inputs,
                self.gate_outputs, self._input_net_set)
        return self._plan

    def _workspace(self, n_vectors: int) -> plan_mod.Workspace:
        """Reusable ``(n_nets, N)`` scratch matrices for one block width."""
        workspace = self._workspaces.get(n_vectors)
        if workspace is None:
            workspace = plan_mod.Workspace(self.n_nets, n_vectors)
            self._workspaces[n_vectors] = workspace
        return workspace

    def gate_delays(self, library: CellLibrary, vdd: float = VDD_REF,
                    scale: float = 1.0) -> np.ndarray:
        """Per-gate delay vector [ps] for one (vdd, scale) corner."""
        self._flush_dirty()
        key = (vdd, scale)
        cached = self._delay_cache.get(key)
        if cached is None:
            # CellLibrary.delay_ps over every gate at once: the same two
            # float64 multiplies in the same order, so the same bits.
            nominal = library.cell_delays_ps
            base = np.array([nominal[kind] for kind in self.gate_kinds],
                            dtype=float)
            cached = base * scale * library.voltage_factor(vdd)
            self._delay_cache[key] = cached
        return cached

    # -- stimulus plumbing ---------------------------------------------------

    def _stimulus_planes(self, inputs: dict[str, np.ndarray]) -> \
            tuple[dict[str, np.ndarray], int]:
        """Validate bus stimulus and convert it to per-bus bit planes."""
        missing = set(self._input_buses) - set(inputs)
        if missing:
            raise CircuitError(f"missing stimulus for inputs {sorted(missing)}")
        extra = set(inputs) - set(self._input_buses)
        if extra:
            raise CircuitError(f"unknown input buses {sorted(extra)}")
        n_vectors = None
        planes: dict[str, np.ndarray] = {}
        for name, bus in self._input_buses.items():
            stimulus = np.atleast_1d(np.asarray(inputs[name]))
            if n_vectors is None:
                n_vectors = stimulus.shape[0]
            elif stimulus.shape[0] != n_vectors:
                raise CircuitError("stimulus arrays differ in length")
            planes[name] = bits_from_ints(stimulus, len(bus.nets))
        assert n_vectors is not None
        return planes, n_vectors

    def _seed_workspace(self, ws, rows, prev_planes, new_planes,
                        sensitized: bool, arrival: float) -> None:
        """Numpy stimulus stage: scatter planes, seed events/settles."""
        if not sensitized:
            # Sensitized masks only read current-cycle values; the
            # previous-cycle value network exists only here.
            self._fill_matrix(prev_planes, ws.prev, rows)
        self._fill_matrix(new_planes, ws.new, rows)
        ws.events[:2] = False
        ws.settles[:2] = 0.0
        for name, bus in self._input_buses.items():
            bus_rows = rows[bus.nets]
            changed = prev_planes[name] != new_planes[name]
            ws.events[bus_rows] = changed
            ws.settles[bus_rows] = changed * arrival

    def _prepare_inputs(self, inputs: dict[str, np.ndarray]) -> \
            tuple[list[np.ndarray | None], int]:
        """Map bus-name -> int-array stimulus onto per-net bit planes."""
        planes, n_vectors = self._stimulus_planes(inputs)
        values: list[np.ndarray | None] = [None] * self.n_nets
        for name, bus in self._input_buses.items():
            for bit, net in enumerate(bus.nets):
                values[net] = planes[name][bit]
        values[0] = np.zeros(n_vectors, dtype=bool)
        values[1] = np.ones(n_vectors, dtype=bool)
        return values, n_vectors

    def _fill_matrix(self, planes: dict[str, np.ndarray],
                     values: np.ndarray, rows: np.ndarray) -> None:
        """Scatter per-bus bit planes into an ``(n_nets, N)`` matrix."""
        values[0] = False
        values[1] = True
        for name, bus in self._input_buses.items():
            values[rows[bus.nets]] = planes[name]

    def _run_functional(self, values: list[np.ndarray | None]) -> None:
        for kind, ins, out in zip(self.gate_kinds, self.gate_inputs,
                                  self.gate_outputs):
            fn = GATE_KINDS[kind][1]
            values[out] = fn(*[values[i] for i in ins])

    def evaluate(self, inputs: dict[str, np.ndarray],
                 engine: str = "compiled") -> dict[str, np.ndarray]:
        """Functionally evaluate the circuit on integer bus stimulus.

        Args:
            inputs: bus name -> integer array (N,) (or scalar int).
            engine: ``"compiled"`` (bucketed plan, default) or
                ``"reference"`` (per-gate loop).

        Returns:
            bus name -> integer array (N,) for every output bus.
        """
        if engine not in ENGINES:
            raise CircuitError(f"unknown engine {engine!r}")
        with obs.span("circuit.evaluate", circuit=self.name,
                      engine=engine):
            if engine == "reference":
                values, _ = self._prepare_inputs(inputs)
                self._run_functional(values)
                return {
                    name: ints_from_bits(
                        np.stack([values[n] for n in bus.nets]))
                    for name, bus in self._output_buses.items()
                }
            planes, n_vectors = self._stimulus_planes(inputs)
            plan = self.plan
            matrix = self._workspace(n_vectors).new
            self._fill_matrix(planes, matrix, plan.rows)
            plan_mod.run_functional(plan, matrix)
            return {
                name: ints_from_bits(matrix[plan.rows[bus.nets]])
                for name, bus in self._output_buses.items()
            }

    def propagate(self, prev_inputs: dict[str, np.ndarray],
                  new_inputs: dict[str, np.ndarray],
                  delays: np.ndarray,
                  input_arrival: float = 0.0,
                  glitch_model: str = "sensitized",
                  engine: str = "compiled") -> \
            tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Two-vector timing simulation (see module docstring).

        Args:
            prev_inputs: bus stimulus applied in the previous cycle
                (the circuit is assumed settled on it).
            new_inputs: bus stimulus launched at the current clock edge.
            delays: per-gate delay vector, e.g. from :meth:`gate_delays`.
            input_arrival: arrival time of toggling primary inputs
                (the flip-flop clock-to-Q delay).
            glitch_model: ``"sensitized"`` (events + static masking,
                default) or ``"value-change"`` (optimistic, settled
                toggles only).
            engine: ``"compiled"`` (bucketed plan, default) or
                ``"reference"`` (per-gate loop); the two are
                bit-identical.

        Returns:
            ``(outputs, arrivals)``: per output bus, the new integer
            values (N,) and the per-bit arrival-time array (width, N)
            in the same unit as ``delays``.
        """
        if len(delays) != self.n_gates:
            raise CircuitError(
                f"delay vector has {len(delays)} entries for "
                f"{self.n_gates} gates")
        if glitch_model not in ("sensitized", "value-change"):
            raise CircuitError(f"unknown glitch model {glitch_model!r}")
        if engine not in ENGINES:
            raise CircuitError(f"unknown engine {engine!r}")
        if engine == "compiled":
            result = self._propagate_compiled(
                prev_inputs, new_inputs, delays, input_arrival,
                glitch_model)
        else:
            with obs.span("circuit.propagate", circuit=self.name,
                          engine=engine, glitch_model=glitch_model):
                result = self._propagate_reference(prev_inputs, new_inputs,
                                                   delays, input_arrival,
                                                   glitch_model)
        # Opt-in independent oracle (REPRO_CHECK_BOUNDS=1): assert every
        # dynamic arrival falls inside the static [min, max] envelope.
        # Imported lazily so the analysis plane stays out of the hot
        # path's import graph; the enabled check itself is one O(nets)
        # STA pass (cached per plan/delay/arrival) plus vector compares.
        from repro.analysis.oracle import maybe_check_bounds
        maybe_check_bounds(self, delays, input_arrival, result[1],
                           engine=engine, glitch_model=glitch_model)
        return result

    def _propagate_reference(self, prev_inputs, new_inputs, delays,
                             input_arrival, glitch_model) -> \
            tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Per-gate-loop propagate (the executable specification)."""
        prev_values, n_prev = self._prepare_inputs(prev_inputs)
        new_values, n_new = self._prepare_inputs(new_inputs)
        if n_prev != n_new:
            raise CircuitError("prev/new stimulus lengths differ")

        events: list[np.ndarray | None] = [None] * self.n_nets
        settles: list[np.ndarray | None] = [None] * self.n_nets
        no_event = np.zeros(n_new, dtype=bool)
        zero = np.zeros(n_new)
        events[0] = no_event
        events[1] = no_event
        settles[0] = zero
        settles[1] = zero
        for net in self._input_net_set:
            changed = prev_values[net] != new_values[net]
            events[net] = changed
            settles[net] = np.where(changed, input_arrival, 0.0)

        if glitch_model == "sensitized":
            runner = self._propagate_sensitized
        else:
            runner = self._propagate_value_change
        runner(prev_values, new_values, events, settles, delays)

        outputs = {}
        out_arrivals = {}
        for name, bus in self._output_buses.items():
            outputs[name] = ints_from_bits(
                np.stack([new_values[n] for n in bus.nets]))
            out_arrivals[name] = np.stack([settles[n] for n in bus.nets])
        return outputs, out_arrivals

    def _propagate_compiled(self, prev_inputs, new_inputs, delays,
                            input_arrival, glitch_model) -> \
            tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Bucketed two-vector simulation on the compiled plan.

        Each stage carries a telemetry span (``propagate.stimulus`` /
        ``propagate.kernel`` / ``propagate.extract``) so "where did the
        time go" inside one call is answerable from a trace.
        """
        with obs.span("circuit.propagate", circuit=self.name,
                      engine="compiled", glitch_model=glitch_model) as top:
            plan = self.plan
            delays = np.asarray(delays, dtype=float)
            prev_planes, n_prev = self._stimulus_planes(prev_inputs)
            new_planes, n_new = self._stimulus_planes(new_inputs)
            if n_prev != n_new:
                raise CircuitError("prev/new stimulus lengths differ")
            top.set(n_vectors=n_new)
            sensitized = glitch_model == "sensitized"
            rows = plan.rows
            ws = self._workspace(n_new)
            with obs.span("propagate.stimulus", mode="numpy"):
                self._seed_workspace(ws, rows, prev_planes, new_planes,
                                     sensitized, float(input_arrival))
            with obs.span("propagate.kernel", mode="numpy"):
                if sensitized:
                    plan_mod.propagate_sensitized(plan, ws, delays)
                else:
                    plan_mod.propagate_value_change(plan, ws, delays)
            with obs.span("propagate.extract", mode="numpy"):
                outputs = {}
                out_arrivals = {}
                for name, bus in self._output_buses.items():
                    bus_rows = rows[bus.nets]
                    outputs[name] = ints_from_bits(ws.new[bus_rows])
                    if sensitized:
                        # Settle rows are raw arrivals; event-mask on
                        # the way out.
                        out_arrivals[name] = ws.settles[bus_rows] \
                            * ws.events[bus_rows]
                    else:
                        out_arrivals[name] = ws.settles[bus_rows]
            return outputs, out_arrivals

    def _propagate_value_change(self, prev_values, new_values, events,
                                settles, delays) -> None:
        """Optimistic engine: only settled-value toggles are events."""
        for index, (kind, ins, out) in enumerate(
                zip(self.gate_kinds, self.gate_inputs, self.gate_outputs)):
            fn = GATE_KINDS[kind][1]
            prev_out = fn(*[prev_values[i] for i in ins])
            new_out = fn(*[new_values[i] for i in ins])
            prev_values[out] = prev_out
            new_values[out] = new_out
            latest = settles[ins[0]]
            for i in ins[1:]:
                latest = np.maximum(latest, settles[i])
            changed = prev_out != new_out
            events[out] = changed
            settles[out] = np.where(changed, latest + delays[index], 0.0)

    def _propagate_sensitized(self, prev_values, new_values, events,
                              settles, delays) -> None:
        """Event engine with static masking by stable controlling inputs.

        The sensitized rules only ever read *current-cycle* values
        (events of the primary inputs already encode the prev-vs-new
        toggle), so unlike the value-change engine this loop never
        evaluates the previous-cycle value network -- the per-gate
        prev evaluation it used to do was dead work, and the compiled
        engine skips it for the same reason.
        """
        for index, (kind, ins, out) in enumerate(
                zip(self.gate_kinds, self.gate_inputs, self.gate_outputs)):
            fn = GATE_KINDS[kind][1]
            new_out = fn(*[new_values[i] for i in ins])
            new_values[out] = new_out

            if kind in ("INV", "BUF"):
                a = ins[0]
                out_event = events[a]
                latest = settles[a]
            elif kind in ("AND2", "NAND2", "OR2", "NOR2"):
                a, b = ins
                controlling = kind in ("OR2", "NOR2")  # stable 1 masks
                if controlling:
                    mask_a = ~events[b] & new_values[b]
                    mask_b = ~events[a] & new_values[a]
                else:  # stable 0 masks
                    mask_a = ~events[b] & ~new_values[b]
                    mask_b = ~events[a] & ~new_values[a]
                eff_a = events[a] & ~mask_a
                eff_b = events[b] & ~mask_b
                out_event = eff_a | eff_b
                latest = np.maximum(np.where(eff_a, settles[a], 0.0),
                                    np.where(eff_b, settles[b], 0.0))
            elif kind in ("XOR2", "XNOR2"):
                a, b = ins
                out_event = events[a] | events[b]
                latest = np.maximum(np.where(events[a], settles[a], 0.0),
                                    np.where(events[b], settles[b], 0.0))
            elif kind == "MUX2":
                s, a, b = ins
                s_stable = ~events[s]
                # Data-leg events are masked when the select is stable
                # and points at the other leg.
                eff_a = events[a] & ~(s_stable & new_values[s])
                eff_b = events[b] & ~(s_stable & ~new_values[s])
                # A select toggle between two stable, equal data legs
                # produces no output activity on an ideal mux.
                legs_equal = (~events[a] & ~events[b]
                              & (new_values[a] == new_values[b]))
                eff_s = events[s] & ~legs_equal
                out_event = eff_a | eff_b | eff_s
                latest = np.maximum(
                    np.maximum(np.where(eff_a, settles[a], 0.0),
                               np.where(eff_b, settles[b], 0.0)),
                    np.where(eff_s, settles[s], 0.0))
            else:  # pragma: no cover - all kinds handled above
                raise CircuitError(f"no event rule for gate kind {kind!r}")

            events[out] = out_event
            settles[out] = np.where(out_event, latest + delays[index], 0.0)
