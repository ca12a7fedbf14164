"""Lowering of a :class:`~repro.netlist.plan.CompiledPlan` to the
flat descriptor the C kernels consume, plus the ctypes dispatch.

A :class:`NativeDesc` is the plan re-expressed as a handful of
contiguous arrays -- per-op family/row-range/offset records plus one
stacked ``int32`` input-row table and per-output-row mask/delay
vectors -- so one C call walks the whole netlist without touching a
Python object per level.  The lowering makes no assumption about op
shape: a level with a single gate (``n == 1``) or a plan with a single
op produce the same records as wide levels, just shorter (regression-
tested against the width-1 suite in ``tests/``).

The descriptor is cached on the plan instance itself, so it shares the
plan's lifecycle: a netlist edit rebuilds the plan and thereby drops
the stale descriptor, and a forked worker inherits (or lazily
rebuilds) the descriptor of the plan it inherited.
"""

from __future__ import annotations

import numpy as np

from repro.native.build import Kernels

_FAMILY_CODES = {"and": 0, "xor": 1, "mux": 2}


class NativeDesc:
    """Flat, native-friendly view of one compiled plan."""

    def __init__(self, plan) -> None:
        ops = plan.ops
        self.n_ops = len(ops)
        self.family = np.array([_FAMILY_CODES[op.family] for op in ops],
                               dtype=np.int32)
        self.lo = np.array([op.lo for op in ops], dtype=np.int64)
        self.hi = np.array([op.hi for op in ops], dtype=np.int64)
        sizes = [len(op.ins) for op in ops]
        self.ins_off = np.zeros(self.n_ops, dtype=np.int64)
        if self.n_ops:
            np.cumsum(sizes[:-1], out=self.ins_off[1:])
        self.ins = (np.concatenate([op.ins for op in ops])
                    if ops else np.empty(0, dtype=np.int64)) \
            .astype(np.int32)
        #: First gate-output row; flags/gidx/delays are indexed by
        #: ``row - gate_row0``.
        self.gate_row0 = int(ops[0].lo) if ops else int(plan.n_nets)
        n_rows = (int(ops[-1].hi) - self.gate_row0) if ops else 0
        self.flags = np.zeros(n_rows, dtype=np.uint8)
        self.gidx = np.empty(n_rows, dtype=np.int64)
        for op in ops:
            n = op.n_gates
            lo = op.lo - self.gate_row0
            self.gidx[lo:lo + n] = op.gidx
            if op.pin is not None:
                pin = op.pin[:, 0]
                self.flags[lo:lo + n] |= pin[:n].astype(np.uint8)
                self.flags[lo:lo + n] |= pin[n:].astype(np.uint8) << 1
            if op.po is not None:
                self.flags[lo:lo + n] |= op.po[:, 0].astype(np.uint8) << 2
        #: One-slot delay cache, mirroring ``CompiledPlan.delay_mats``:
        #: identity plus defensive value comparison, so recycled ids
        #: and in-place mutations both miss correctly.
        self._delay_cache: tuple | None = None

    def delays_rowed(self, delays: np.ndarray) -> np.ndarray:
        """Per-output-row delay vector (size-1 cache)."""
        cached = self._delay_cache
        if (cached is None or cached[0] is not delays
                or not np.array_equal(cached[1], delays)):
            rowed = np.ascontiguousarray(delays[self.gidx])
            cached = (delays, delays.copy(), rowed)
            self._delay_cache = cached
        return cached[2]


def native_desc(plan) -> NativeDesc:
    """The plan's native descriptor (built lazily, cached on the plan)."""
    desc = getattr(plan, "_native_desc", None)
    if desc is None:
        desc = NativeDesc(plan)
        plan._native_desc = desc
    return desc


class BusTables:
    """Flat per-bit stimulus/extract tables for one circuit's buses.

    Each bus bit becomes one ``(row, word, shift)`` record: ``row`` is
    the bit's net renumbered through ``plan.rows``, ``word`` the index
    of its bus in the packed ``(n_buses, N)`` uint64 stimulus/result
    matrix, ``shift`` its position inside that word.  The tables are
    what lets ``repro_run`` unpack the stimulus and pack the outputs
    inside its single Python/C crossing instead of once per bus.

    Buses wider than 64 bits cannot pack into one word; callers must
    check :attr:`packable` and keep the numpy path for such circuits
    (the numpy ``ints_from_bits`` shares the same 64-bit ceiling).
    """

    def __init__(self, plan, input_buses: dict, output_buses: dict) -> None:
        #: Structural identity: ``plan.output_bus`` can add buses
        #: without recompiling the plan, so the cache in
        #: :func:`bus_tables` keys on this, not on plan identity.
        self.key = (
            tuple((name, tuple(nets)) for name, nets in input_buses.items()),
            tuple((name, tuple(nets)) for name, nets in output_buses.items()),
        )
        widths = [len(nets) for nets in input_buses.values()]
        widths += [len(nets) for nets in output_buses.values()]
        self.packable = all(w <= 64 for w in widths)
        rows = plan.rows

        def flat(buses):
            bit_row, bit_word, bit_shift = [], [], []
            for word, nets in enumerate(buses.values()):
                for shift, net in enumerate(nets):
                    bit_row.append(int(rows[net]))
                    bit_word.append(word)
                    bit_shift.append(shift)
            return (np.array(bit_row, dtype=np.int64),
                    np.array(bit_word, dtype=np.int64),
                    np.array(bit_shift, dtype=np.int64))

        self.in_rows, self.in_word, self.in_shift = flat(input_buses)
        self.out_rows, self.out_word, self.out_shift = flat(output_buses)
        #: Base pointers of the table arrays, computed once: the
        #: arrays live as long as this object, and ``.ctypes.data``
        #: rebuilds a ctypes accessor on every read (~1.5 us each,
        #: three reads per fused stage otherwise).
        self.in_ptrs = (self.in_rows.ctypes.data,
                        self.in_word.ctypes.data,
                        self.in_shift.ctypes.data)
        self.out_ptrs = (self.out_rows.ctypes.data,
                         self.out_word.ctypes.data,
                         self.out_shift.ctypes.data)
        self.n_in_bits = len(self.in_rows)
        self.n_out_bits = len(self.out_rows)
        self.n_out_buses = len(output_buses)
        self.out_names = list(output_buses)
        self.out_widths = [len(nets) for nets in output_buses.values()]
        #: Per-bus offset into the dense (n_out_bits, N) arrival matrix.
        self.out_offsets = np.concatenate(
            ([0], np.cumsum(self.out_widths)))[:-1].tolist() \
            if self.out_widths else []


def bus_tables(plan, input_buses: dict, output_buses: dict) -> BusTables:
    """The plan's bus tables (cached on the plan, keyed by structure).

    ``input_buses`` / ``output_buses`` map bus name to its ordered net
    list (LSB first), in the circuit's canonical bus order -- the same
    order the packed stimulus/result word matrices use.
    """
    cached = getattr(plan, "_native_bus_tables", None)
    key = (
        tuple((name, tuple(nets)) for name, nets in input_buses.items()),
        tuple((name, tuple(nets)) for name, nets in output_buses.items()),
    )
    if cached is None or cached.key != key:
        cached = BusTables(plan, input_buses, output_buses)
        plan._native_bus_tables = cached
    return cached


def _packed_words(words: np.ndarray, n_cols: int, what: str) -> int:
    """Validate a packed ``(n_buses, N)`` uint64 matrix; row stride."""
    if (words.dtype != np.uint64 or words.ndim != 2
            or words.shape[1] != n_cols
            or not words.flags.c_contiguous):
        raise ValueError(f"{what} words must be C-contiguous "
                         f"(n_buses, {n_cols}) uint64")
    return words.shape[1]


def _layout(ws) -> tuple:
    """Base pointers ``(new, events, settles, prev)`` of ``ws``.

    Workspace planes are C-contiguous ``(n_nets, N)`` blocks allocated
    once and never replaced, so their addresses are cached on the
    workspace: ``.ctypes.data`` rebuilds a ctypes accessor on every
    read (~1.5 us), and one workspace serves every call of a DTA
    sweep.  ``prev`` is allocated lazily by the value-change model;
    until then its slot is None (the sensitized kernel never reads
    it) and the cache is rebuilt on the first call that needs it.
    """
    cached = getattr(ws, "_native_layout", None)
    if cached is None or (cached[3] is None and ws.has_prev):
        cached = (ws.new.ctypes.data, ws.events.ctypes.data,
                  ws.settles.ctypes.data,
                  ws.prev.ctypes.data if ws.has_prev else None)
        ws._native_layout = cached
    return cached


def run_fused(plan, ws, tables: BusTables, prev_words: np.ndarray,
              new_words: np.ndarray, arrival: float, delays: np.ndarray,
              glitch_model: str, kernels: Kernels):
    """Whole propagate as one ``repro_run`` call over the block.

    Stimulus unpack, every level and output extraction happen inside
    one ctypes crossing.  The kernel ABI takes a column range plus
    full-width row strides; a propagate passes the range ``0..n_cols``.

    Returns ``(outputs, arrivals)``: per-bus packed uint64 vectors and
    per-bus ``(width, N)`` arrival matrices, views into two buffers
    freshly allocated per call (callers may retain them).
    """
    if not tables.packable:
        raise ValueError("bus wider than 64 bits cannot use the fused "
                         "path")
    n_cols = ws.n_vectors
    words_stride = _packed_words(prev_words, n_cols, "prev stimulus")
    _packed_words(new_words, n_cols, "new stimulus")
    value_change = glitch_model != "sensitized"
    if value_change:
        ws.prev  # noqa: B018  (allocate before the layout is cached)
    new_ptr, events_ptr, settles_ptr, prev_ptr = _layout(ws)
    desc = native_desc(plan)
    rowed = desc.delays_rowed(np.asarray(delays, dtype=float))
    cached = getattr(ws, "_native_arrival", None)
    if cached is None:
        buf = np.empty(1)
        cached = (buf, buf.ctypes.data)
        ws._native_arrival = cached
    arr, arr_ptr = cached
    arr[0] = arrival
    out_words = np.empty((tables.n_out_buses, n_cols), dtype=np.uint64)
    out_arrivals = np.empty((tables.n_out_bits, n_cols))
    kernels.run(tables.n_in_bits, *tables.in_ptrs,
                prev_words.ctypes.data, new_words.ctypes.data,
                words_stride, arr_ptr, desc.n_ops, desc.family.ctypes.data,
                desc.lo.ctypes.data, desc.hi.ctypes.data,
                desc.ins_off.ctypes.data, desc.ins.ctypes.data,
                desc.flags.ctypes.data, desc.gate_row0, rowed.ctypes.data,
                tables.n_out_bits, *tables.out_ptrs,
                tables.n_out_buses, out_words.ctypes.data,
                out_arrivals.ctypes.data, n_cols, int(value_change),
                prev_ptr if value_change else None,
                new_ptr, events_ptr, settles_ptr, n_cols, n_cols)
    outputs = {}
    arrivals = {}
    for i, (name, width, off) in enumerate(
            zip(tables.out_names, tables.out_widths, tables.out_offsets)):
        outputs[name] = out_words[i]
        arrivals[name] = out_arrivals[off:off + width]
    return outputs, arrivals
