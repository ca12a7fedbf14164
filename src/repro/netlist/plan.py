"""Compiled structure-of-arrays evaluation plan for :class:`Circuit`.

The per-gate engines in :mod:`repro.netlist.circuit` dispatch one small
numpy call per gate per block, so a 3k-gate multiplier pays ~40k trips
through the Python interpreter for every evaluated block -- the
dominant cost of DTA characterization.  A :class:`CompiledPlan` removes
that overhead by separating a one-time *compile* step from the repeated
*execute* step:

1. **Levelize** the netlist: every net gets a topological level
   (primary inputs and constants at level 0, a gate output one past its
   deepest input).  Gates on the same level are mutually independent by
   construction, so they can be evaluated all at once.
2. **Renumber** nets so that each level's gate outputs occupy one
   contiguous row range of the state matrices -- every kernel writes
   straight into a matrix slice instead of scattering.
3. **Merge** each level's gates into at most three *family* kernels
   (structure-of-arrays index vectors + per-gate inversion-mask
   columns):

   * ``and``-family -- AND2/NAND2/OR2/NOR2 and, with the constant-1
     net as a phantom second input, INV/BUF.  By De Morgan every member
     is ``((a ^ pa) & (b ^ pb)) ^ po`` for per-gate masks pa/pb/po,
     and the sensitized event rule is uniform as well: an input event
     passes iff the other leg has an event or sits at the
     non-controlling value, i.e. ``eff_a = ea & (eb | (nb ^ pb))``.
   * ``xor``-family -- XOR2/XNOR2: ``(a ^ b) ^ po``, never masks.
   * ``mux`` -- MUX2 keeps its dedicated select rules.

Execution operates on ``(n_nets, N)`` state matrices: per family
kernel one fancy-indexed gather of the stacked inputs, a handful of
vectorized bitwise ops, one float max-plus pipeline and one slice
write.  ``np.where`` is avoided throughout (masking is multiplication
by a boolean array, measured ~3x faster), and the sensitized engine
skips the previous-cycle value network entirely -- its masks only ever
read current-cycle values, so the prev evaluation of the per-gate
reference is dead work there.

Two internal representation changes relative to the reference engine
are invisible at the API boundary but worth knowing:

* **Raw settles.**  Internally, a gate-output row of the settle matrix
  holds ``latest + delay`` even where the output carries no event; the
  reference stores 0.0 there.  Consumers always multiply a gathered
  settle by their effective-event mask (``eff <= event``), and
  :class:`Circuit` masks by the event matrix at output-bus extraction,
  so observable arrivals are bit-identical (all settles are
  non-negative, and ``e * s`` equals ``where(e, s, 0.0)`` exactly for
  finite non-negative ``s``).
* **Delay matrix cache.**  The broadcast of the per-bucket delay
  column against the block is materialized once per (delay vector,
  block width) and cached by *object identity* (a strong reference is
  kept, so the id cannot be recycled); repeated blocks of one DTA
  corner reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.graph import find_combinational_cycle

#: and-family kind -> (pa, pb, po) inversion masks for
#: ``((a ^ pa) & (b ^ pb)) ^ po``.
AND_FAMILY: dict[str, tuple[bool, bool, bool]] = {
    "AND2": (False, False, False),
    "NAND2": (False, False, True),
    "OR2": (True, True, True),
    "NOR2": (True, True, False),
    # Unary gates get the constant-1 net as phantom leg b (pb=False):
    # b^pb is all-ones, so the AND is transparent and leg b (event-free
    # by construction) never contributes an event.
    "INV": (False, False, True),
    "BUF": (False, False, False),
}

#: xor-family kind -> po output-inversion mask for ``(a ^ b) ^ po``.
XOR_FAMILY: dict[str, bool] = {"XOR2": False, "XNOR2": True}

_UNARY = ("INV", "BUF")


def _column(flags: list[bool]) -> np.ndarray | None:
    """Per-gate boolean mask column ``(n, 1)``; None when all-False."""
    if not any(flags):
        return None
    return np.array(flags, dtype=bool)[:, None]


@dataclass(frozen=True)
class FamilyOp:
    """One level's worth of same-family gates, as index arrays.

    Attributes:
        family: ``"and"``, ``"xor"`` or ``"mux"``.
        lo, hi: output row slice of the state matrices.
        ins: stacked input *rows*, ``(2n,)`` ordered ``[a..., b...]``
            for 2-input families and ``(3n,)`` ``[a..., b..., s...]``
            for muxes.
        gidx: ``(n,)`` gate indices into the caller's delay vector.
        pin: ``(2n, 1)`` input inversion-mask column (and-family only).
        po: ``(n, 1)`` output inversion-mask column.
    """

    family: str
    lo: int
    hi: int
    ins: np.ndarray
    gidx: np.ndarray
    pin: np.ndarray | None = None
    po: np.ndarray | None = None

    @property
    def n_gates(self) -> int:
        return self.hi - self.lo


class CompiledPlan:
    """Levelized, family-bucketed execution plan of one circuit."""

    def __init__(self, n_nets: int, n_levels: int, rows: np.ndarray,
                 ops: tuple[FamilyOp, ...]):
        self.n_nets = n_nets
        self.n_levels = n_levels
        #: net id -> row index in the plan's state matrices.
        self.rows = rows
        self.ops = ops
        #: Widest per-level gather, in stacked input rows; sizes the
        #: workspace scratch planes so no level allocates its own.
        self.max_gather_rows = max((len(op.ins) for op in ops), default=0)
        self._dmat_key: tuple | None = None
        self._dmat_delays: np.ndarray | None = None  # strong ref, keeps id
        self._dmat_values: np.ndarray | None = None  # defensive copy
        self._dmats: list[np.ndarray] = []

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    @property
    def net_of_row(self) -> np.ndarray:
        """Row index -> net id (inverse of :attr:`rows`), lazily built.

        Static analyzers compute per-*row* quantities (the kernels'
        native coordinates) and need to speak per-*net* at the API
        boundary; the inverse permutation is the bridge.
        """
        inverse = getattr(self, "_net_of_row", None)
        if inverse is None:
            inverse = np.empty(self.n_nets, dtype=np.int64)
            inverse[self.rows] = np.arange(self.n_nets, dtype=np.int64)
            self._net_of_row = inverse
        return inverse

    def row_delays(self, delays: np.ndarray) -> np.ndarray:
        """Per-row delay view: ``out[row] = delays[gate]`` (0 elsewhere).

        Constants, primary inputs and any other non-gate rows carry
        delay 0.  Uncached -- analyzers call this once per report, not
        per propagated block.
        """
        out = np.zeros(self.n_nets)
        for op in self.ops:
            out[op.lo:op.hi] = delays[op.gidx]
        return out

    def delay_mats(self, delays: np.ndarray,
                   n_vectors: int) -> list[np.ndarray]:
        """Per-op ``(n, N)`` delay tiles (size-1 cache).

        The cache key is the delay array's identity plus a defensive
        value comparison, so both a new array under a recycled id and
        an in-place mutation of the cached array miss correctly.  The
        comparison is O(n_gates), noise next to one level kernel.
        """
        key = (id(delays), n_vectors)
        if (self._dmat_key != key or self._dmat_delays is not delays
                or self._dmat_values is None
                or not np.array_equal(self._dmat_values, delays)):
            # Materialized (not stride-0 broadcast) tiles: the inner
            # np.add then runs at contiguous speed on every block.
            self._dmats = [
                np.ascontiguousarray(np.broadcast_to(
                    delays[op.gidx][:, None], (op.n_gates, n_vectors)))
                for op in self.ops
            ]
            self._dmat_delays = delays
            self._dmat_values = delays.copy()
            self._dmat_key = key
        return self._dmats


def compile_plan(n_nets: int, gate_kinds: list[str],
                 gate_inputs: list[tuple[int, ...]],
                 gate_outputs: list[int],
                 input_nets: set[int]) -> CompiledPlan:
    """Levelize a topologically-ordered netlist and bucket it by family.

    Raises:
        ValueError: on a combinational cycle (the diagnostic names the
            loop's nets) or a gate reading a net with no driver --
            conditions that would otherwise corrupt levelization
            silently (an unassigned level reads as 0, an unassigned
            row as -1).
    """
    driven = {0, 1} | set(input_nets)
    for index, (ins, out) in enumerate(zip(gate_inputs, gate_outputs)):
        missing = [net for net in ins if net not in driven]
        if missing:
            cycle = find_combinational_cycle(gate_inputs, gate_outputs)
            if cycle is not None:
                path = " -> ".join(f"n{net}" for net in cycle)
                raise ValueError(
                    f"combinational cycle through nets {path}; "
                    "break the loop (insert a register) before compiling")
            raise ValueError(
                f"gate {index} ({gate_kinds[index]}) reads undriven "
                f"net(s) {missing}; drive them or list gates in "
                "topological order")
        driven.add(out)

    level = np.zeros(n_nets, dtype=np.int64)
    gate_levels = []
    for ins, out in zip(gate_inputs, gate_outputs):
        out_level = 1 + max(level[i] for i in ins)
        level[out] = out_level
        gate_levels.append(int(out_level))

    # Renumber: constants at rows 0/1, then primary inputs, then gate
    # outputs level by level, family-major, so each FamilyOp writes one
    # contiguous slice.
    rows = np.full(n_nets, -1, dtype=np.int64)
    rows[0] = 0
    rows[1] = 1
    next_row = 2
    for net in sorted(input_nets):
        rows[net] = next_row
        next_row += 1

    def family_of(kind: str) -> str:
        if kind in AND_FAMILY:
            return "and"
        if kind in XOR_FAMILY:
            return "xor"
        if kind == "MUX2":
            return "mux"
        raise ValueError(f"no compiled rule for gate kind {kind!r}")

    groups: dict[tuple[int, str], list[int]] = {}
    for index, (kind, gate_level) in enumerate(zip(gate_kinds, gate_levels)):
        groups.setdefault((gate_level, family_of(kind)), []).append(index)

    ops = []
    for (gate_level, family), members in sorted(groups.items()):
        lo = next_row
        for g in members:
            rows[gate_outputs[g]] = next_row
            next_row += 1
        gidx = np.array(members, dtype=np.int64)
        if family == "and":
            ia, ib, pa, pb, po = [], [], [], [], []
            for g in members:
                kind = gate_kinds[g]
                mask_a, mask_b, mask_o = AND_FAMILY[kind]
                ins = gate_inputs[g]
                ia.append(ins[0])
                # Unary kinds get the constant-1 net as a phantom b leg.
                ib.append(1 if kind in _UNARY else ins[1])
                pa.append(mask_a)
                pb.append(mask_b)
                po.append(mask_o)
            stacked = rows[np.array(ia + ib, dtype=np.int64)]
            pin = _column(pa + pb)
            ops.append(FamilyOp("and", lo, next_row, stacked, gidx,
                                pin=pin, po=_column(po)))
        elif family == "xor":
            ia = [gate_inputs[g][0] for g in members]
            ib = [gate_inputs[g][1] for g in members]
            po = [XOR_FAMILY[gate_kinds[g]] for g in members]
            stacked = rows[np.array(ia + ib, dtype=np.int64)]
            ops.append(FamilyOp("xor", lo, next_row, stacked, gidx,
                                po=_column(po)))
        else:  # mux: input order in the netlist is (select, a, b)
            isel = [gate_inputs[g][0] for g in members]
            ia = [gate_inputs[g][1] for g in members]
            ib = [gate_inputs[g][2] for g in members]
            stacked = rows[np.array(ia + ib + isel, dtype=np.int64)]
            ops.append(FamilyOp("mux", lo, next_row, stacked, gidx))

    assert next_row == n_nets
    return CompiledPlan(n_nets=n_nets, n_levels=max(gate_levels, default=0),
                        rows=rows, ops=tuple(ops))


class Workspace:
    """Preallocated ``(n_nets, N)`` state matrices, reused across calls.

    Every kernel writes its full output slice on every call (constants
    and primary inputs are re-seeded, each level re-writes its rows),
    so buffers are recycled between blocks of the same width without
    clearing -- the DTA loop reuses one workspace for all its chunks.
    ``prev`` is only allocated when the value-change engine needs it --
    the sensitized engine never touches previous-cycle gate values, so
    a sensitized-only workspace never pays for the matrix.
    """

    def __init__(self, n_nets: int, n_vectors: int):
        self.n_vectors = n_vectors
        self.new = np.empty((n_nets, n_vectors), dtype=bool)
        self._events: np.ndarray | None = None
        self._settles: np.ndarray | None = None
        self._prev: np.ndarray | None = None
        self._scratch: dict[tuple, np.ndarray] = {}

    def scratch(self, tag: str, rows: int, n_vectors: int | None = None,
                dtype=bool) -> np.ndarray:
        """Reusable private ``(rows, N)`` gather plane, grown on demand.

        The timing engines gather each level's stacked inputs into
        these planes (``np.take(..., out=...)``) instead of allocating
        ``values[op.ins]`` fresh for every level of every call; one
        plane per role ("values"/"events"/"settles") sized to the
        plan's widest level serves the whole propagate.
        """
        n_vectors = self.n_vectors if n_vectors is None else n_vectors
        key = (tag, n_vectors, np.dtype(dtype).str)
        buffer = self._scratch.get(key)
        if buffer is None or buffer.shape[0] < rows:
            buffer = np.empty((rows, n_vectors), np.dtype(dtype))
            self._scratch[key] = buffer
        return buffer

    @property
    def prev(self) -> np.ndarray:
        if self._prev is None:
            self._prev = np.empty(self.new.shape, dtype=bool)
        return self._prev

    @property
    def events(self) -> np.ndarray:
        if self._events is None:
            self._events = np.empty(self.new.shape, dtype=bool)
        return self._events

    @property
    def settles(self) -> np.ndarray:
        if self._settles is None:
            self._settles = np.empty(self.new.shape)
        return self._settles


# ---------------------------------------------------------------------------
# Value kernels (shared by evaluate and both timing engines)
# ---------------------------------------------------------------------------

def _gather(matrix: np.ndarray, ins: np.ndarray,
            scratch: np.ndarray | None) -> np.ndarray:
    """Gather stacked input rows, into ``scratch`` when profitable.

    ``np.take(..., out=scratch)`` keeps steady-state propagate calls
    allocation-free -- but only on C-contiguous matrices: handed a
    column-sliced view it falls into a buffering slow path that copies
    the whole source (measured ~90x).  Workspace matrices are always
    full-width blocks; functional evaluation passes ``scratch=None``
    and keeps the fancy-index gather.
    """
    if scratch is None:
        return matrix[ins]
    # A non-contiguous source or destination would silently take
    # numpy's buffered slow path; tripping this means a new call site
    # routed a column-sliced view here.
    assert matrix.flags.c_contiguous, \
        "np.take(out=) fast path needs a C-contiguous source"
    out = scratch[:len(ins)]
    assert out.flags.c_contiguous, \
        "np.take(out=) fast path needs a C-contiguous destination"
    np.take(matrix, ins, axis=0, out=out, mode="clip")
    return out


def _values_op(op: FamilyOp, values: np.ndarray,
               scratch: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Evaluate one family op; returns the gathered per-leg inputs.

    Writes the output values into ``values[op.lo:op.hi]`` and returns
    the (possibly inversion-masked) gathered input planes so the event
    kernels can reuse them without a second gather.  With ``scratch``
    (a preallocated ``(>= len(op.ins), N)`` plane) the gather runs
    allocation-free via ``np.take``; the indices are plan-built and
    in-range, so ``mode="clip"`` only buys the cheap unchecked path.
    """
    n = op.n_gates
    out = values[op.lo:op.hi]
    gathered = _gather(values, op.ins, scratch)
    if op.family == "and":
        if op.pin is not None:
            np.bitwise_xor(gathered, op.pin, out=gathered)
        va, vb = gathered[:n], gathered[n:]
        np.bitwise_and(va, vb, out=out)
        if op.po is not None:
            np.bitwise_xor(out, op.po, out=out)
        return va, vb
    if op.family == "xor":
        va, vb = gathered[:n], gathered[n:]
        np.bitwise_xor(va, vb, out=out)
        if op.po is not None:
            np.bitwise_xor(out, op.po, out=out)
        return va, vb
    # mux: out = a ^ (s & (a ^ b))
    va, vb, vs = gathered[:n], gathered[n:2 * n], gathered[2 * n:]
    diff = va ^ vb
    np.bitwise_and(vs, diff, out=out)
    np.bitwise_xor(out, va, out=out)
    return va, vb, vs, diff


def run_functional(plan: CompiledPlan, values: np.ndarray) -> None:
    """Evaluate all gates on a ``(n_nets, N)`` value matrix in place."""
    for op in plan.ops:
        _values_op(op, values)


# ---------------------------------------------------------------------------
# Timing engines
# ---------------------------------------------------------------------------

def propagate_sensitized(plan: CompiledPlan, ws: Workspace,
                         delays: np.ndarray) -> None:
    """Bucketed event engine with static masking (see circuit docstring).

    Expects ``ws.new`` filled on constant/input rows, ``ws.events`` /
    ``ws.settles`` seeded there as well; ``ws.prev`` is not used (the
    masks of the sensitized model only read current-cycle values).
    Settle rows of gate outputs are left *unmasked* (raw arrival); the
    caller masks by the event matrix at extraction.
    """
    new, events, settles = ws.new, ws.events, ws.settles
    dmats = plan.delay_mats(delays, ws.n_vectors)
    rows = plan.max_gather_rows
    vbuf = ws.scratch("values", rows)
    ebuf = ws.scratch("events", rows)
    sbuf = ws.scratch("settles", rows, dtype=np.float64)
    for op, dmat in zip(plan.ops, dmats):
        n = op.n_gates
        legs = _values_op(op, new, vbuf)
        eff = _gather(events, op.ins, ebuf)
        out_events = events[op.lo:op.hi]
        if op.family == "and":
            va, vb = legs
            ea, eb = eff[:n], eff[n:]
            sens_a = eb | vb
            sens_b = ea | va
            np.bitwise_and(ea, sens_a, out=ea)
            np.bitwise_and(eb, sens_b, out=eb)
            np.bitwise_or(ea, eb, out=out_events)
        elif op.family == "xor":
            np.bitwise_or(eff[:n], eff[n:], out=out_events)
        else:  # mux
            va, vb, vs, diff = legs
            ea, eb, es = eff[:n], eff[n:2 * n], eff[2 * n:]
            s_stable_b = ~es  # becomes "select stable and pointing away"
            sel_away_a = s_stable_b & vs
            np.bitwise_and(s_stable_b, ~vs, out=s_stable_b)
            legs_equal = ~ea & ~eb & ~diff
            np.bitwise_and(ea, ~sel_away_a, out=ea)
            np.bitwise_and(eb, ~s_stable_b, out=eb)
            np.bitwise_and(es, ~legs_equal, out=es)
            np.bitwise_or(ea, eb, out=out_events)
            np.bitwise_or(out_events, es, out=out_events)
        gathered = _gather(settles, op.ins, sbuf)
        np.multiply(gathered, eff, out=gathered)
        latest = np.maximum(gathered[:n], gathered[n:2 * n],
                            out=gathered[:n])
        if op.family == "mux":
            np.maximum(latest, gathered[2 * n:], out=latest)
        np.add(latest, dmat, out=settles[op.lo:op.hi])


def propagate_value_change(plan: CompiledPlan, ws: Workspace,
                           delays: np.ndarray) -> None:
    """Bucketed optimistic engine: only settled-value toggles are events.

    Unlike the sensitized engine, consumers read input settles
    *unmasked* by events, so settle rows are stored masked (zero where
    the output value did not toggle), exactly like the reference.
    """
    prev, new, events, settles = ws.prev, ws.new, ws.events, ws.settles
    dmats = plan.delay_mats(delays, ws.n_vectors)
    rows = plan.max_gather_rows
    vbuf = ws.scratch("values", rows)
    sbuf = ws.scratch("settles", rows, dtype=np.float64)
    for op, dmat in zip(plan.ops, dmats):
        n = op.n_gates
        _values_op(op, prev, vbuf)
        _values_op(op, new, vbuf)
        changed = events[op.lo:op.hi]
        np.not_equal(prev[op.lo:op.hi], new[op.lo:op.hi], out=changed)
        gathered = _gather(settles, op.ins, sbuf)
        if op.family == "mux":
            # Reference input order is (select, a, b).
            latest = np.maximum(gathered[2 * n:], gathered[:n],
                                out=gathered[:n])
            np.maximum(latest, gathered[n:2 * n], out=latest)
        else:
            latest = np.maximum(gathered[:n], gathered[n:],
                                out=gathered[:n])
        np.add(latest, dmat, out=latest)
        np.multiply(latest, changed, out=settles[op.lo:op.hi])
