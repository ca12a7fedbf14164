"""Equivalence of the compiled bucketed engine with the per-gate reference.

The compiled structure-of-arrays plan (`repro.netlist.plan`) must be a
pure performance transformation: on any feed-forward circuit, both
glitch models, it has to produce bit-identical output values and
arrival times to the retained per-gate reference engine.  The property
test below builds random circuits (random kinds, random wiring depths,
shared fan-out, constants as inputs) and cross-checks every observable.

The Monte-Carlo layer rides on the same guarantee: CPU reuse via
``Cpu.reset()`` must be invisible in the results.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.bench.suite import build_kernel
from repro.fi.base import FaultInjector
from repro.mc.runner import run_trial
from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GATE_KINDS, arity_of
from repro.netlist.plan import F32_ATOL, F32_RTOL
from repro.sim.cpu import Cpu
from repro.sim.machine import MachineConfig

#: Marker of every test that executes the native C backend: skipped
#: (never failed) where no working compiler exists or REPRO_NO_CC
#: masks it -- the toolchain is optional by contract.  Deliberately
#: defined per file: ``from conftest import ...`` is ambiguous under
#: whole-repo collection (tests/ and benchmarks/ both own a conftest
#: module named ``conftest``), and the condition/reason already
#: delegate to the one implementation in :mod:`repro.native`.
needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason=f"native backend unavailable "
           f"({native.unavailable_reason()})")


@pytest.fixture(autouse=True)
def _bounds_oracle(monkeypatch):
    """Arm the static bounds oracle for every equivalence test.

    With ``REPRO_CHECK_BOUNDS=1`` each propagate in this file -- five
    engines, both glitch models -- is additionally checked against the
    independent STA envelope, so the suite cross-checks engines
    against each other *and* against the static bounds at once.
    """
    monkeypatch.setenv("REPRO_CHECK_BOUNDS", "1")


# ---------------------------------------------------------------------------
# Random-circuit property tests
# ---------------------------------------------------------------------------

@st.composite
def random_circuits(draw, n_vectors=st.integers(min_value=1, max_value=16)):
    """A random feed-forward circuit plus matched stimulus blocks."""
    n_inputs = draw(st.integers(min_value=1, max_value=3))
    widths = [draw(st.integers(min_value=1, max_value=6))
              for _ in range(n_inputs)]
    n_gates = draw(st.integers(min_value=1, max_value=40))
    circuit = Circuit("random")
    nets = [0, 1]
    for index, width in enumerate(widths):
        nets.extend(circuit.input_bus(f"i{index}", width))
    kinds = sorted(GATE_KINDS)
    outputs = []
    for _ in range(n_gates):
        kind = draw(st.sampled_from(kinds))
        ins = [nets[draw(st.integers(0, len(nets) - 1))]
               for _ in range(arity_of(kind))]
        out = circuit.gate(kind, *ins)
        nets.append(out)
        outputs.append(out)
    # Expose a random selection of internal nets (plus the last gate).
    n_out = draw(st.integers(min_value=1, max_value=min(6, len(outputs))))
    chosen = [outputs[draw(st.integers(0, len(outputs) - 1))]
              for _ in range(n_out - 1)] + [outputs[-1]]
    circuit.output_bus("y", chosen)
    n_vectors = draw(n_vectors)
    stim = {}
    for index, width in enumerate(widths):
        limit = (1 << width) - 1
        stim[f"i{index}"] = np.array(
            [draw(st.integers(0, limit)) for _ in range(2 * n_vectors)],
            dtype=np.uint64)
    prev = {k: v[:n_vectors] for k, v in stim.items()}
    new = {k: v[n_vectors:] for k, v in stim.items()}
    delays = np.array([draw(st.floats(0.5, 40.0, allow_nan=False))
                       for _ in range(n_gates)])
    arrival = draw(st.floats(0.0, 25.0, allow_nan=False))
    return circuit, prev, new, delays, arrival


@given(random_circuits())
@settings(max_examples=60, deadline=None)
def test_compiled_engine_bit_identical(case):
    circuit, prev, new, delays, arrival = case
    evaluated = {}
    for engine in ("compiled", "reference"):
        evaluated[engine] = circuit.evaluate(new, engine=engine)
    assert np.array_equal(evaluated["compiled"]["y"],
                          evaluated["reference"]["y"])
    for glitch_model in ("sensitized", "value-change"):
        out_c, arr_c = circuit.propagate(prev, new, delays, arrival,
                                         glitch_model, engine="compiled")
        out_r, arr_r = circuit.propagate(prev, new, delays, arrival,
                                         glitch_model, engine="reference")
        assert np.array_equal(out_c["y"], out_r["y"]), glitch_model
        assert np.array_equal(arr_c["y"], arr_r["y"]), glitch_model


@given(random_circuits())
@settings(max_examples=40, deadline=None)
def test_f32_engine_within_documented_tolerance(case):
    """compiled-f32 vs compiled: values/events exact, arrivals close.

    The value/event network is boolean, so outputs must stay
    bit-identical; arrivals follow the relaxed-identity contract
    (F32_RTOL/F32_ATOL) on both glitch models.
    """
    circuit, prev, new, delays, arrival = case
    for glitch_model in ("sensitized", "value-change"):
        out64, arr64 = circuit.propagate(prev, new, delays, arrival,
                                         glitch_model, engine="compiled")
        out32, arr32 = circuit.propagate(prev, new, delays, arrival,
                                         glitch_model,
                                         engine="compiled-f32")
        assert np.array_equal(out32["y"], out64["y"]), glitch_model
        np.testing.assert_allclose(arr32["y"], arr64["y"],
                                   rtol=F32_RTOL, atol=F32_ATOL,
                                   err_msg=glitch_model)


def _compiled_engines():
    engines = ["compiled", "compiled-f32"]
    if native.native_available():
        engines += ["compiled-native", "native-f32"]
    return engines


@needs_native
@given(random_circuits())
@settings(max_examples=40, deadline=None)
def test_native_engine_bit_identical(case):
    """compiled-native must be a pure backend swap of compiled-f64.

    Same ops, same order, select-vs-multiply masking equivalent for
    the non-negative settles both engines produce: values, events and
    arrivals are bit-identical on random circuits, both glitch models.
    """
    circuit, prev, new, delays, arrival = case
    for glitch_model in ("sensitized", "value-change"):
        out_c, arr_c = circuit.propagate(prev, new, delays, arrival,
                                         glitch_model, engine="compiled")
        out_n, arr_n = circuit.propagate(prev, new, delays, arrival,
                                         glitch_model,
                                         engine="compiled-native")
        assert np.array_equal(out_n["y"], out_c["y"]), glitch_model
        assert np.array_equal(arr_n["y"], arr_c["y"]), glitch_model


@needs_native
@given(random_circuits())
@settings(max_examples=25, deadline=None)
def test_native_f32_within_documented_tolerance(case):
    """native-f32 inherits the PR 4 relaxed-identity contract.

    Values/events bit-identical to float64; arrivals within
    F32_RTOL/F32_ATOL -- the same contract (and the same store-key
    class) as compiled-f32.
    """
    circuit, prev, new, delays, arrival = case
    for glitch_model in ("sensitized", "value-change"):
        out64, arr64 = circuit.propagate(prev, new, delays, arrival,
                                         glitch_model, engine="compiled")
        out32, arr32 = circuit.propagate(prev, new, delays, arrival,
                                         glitch_model,
                                         engine="native-f32")
        assert np.array_equal(out32["y"], out64["y"]), glitch_model
        np.testing.assert_allclose(arr32["y"], arr64["y"],
                                   rtol=F32_RTOL, atol=F32_ATOL,
                                   err_msg=glitch_model)


def test_native_engine_unavailable_is_a_clean_error(monkeypatch):
    """Explicit native selection without a toolchain: clear error."""
    monkeypatch.setenv("REPRO_NO_CC", "1")
    assert not native.native_available()
    circuit = Circuit("masked")
    a = circuit.input_bus("a", 1)[0]
    circuit.output_bus("y", [circuit.gate("INV", a)])
    with pytest.raises(CircuitError, match="REPRO_NO_CC"):
        circuit.propagate({"a": [0]}, {"a": [1]}, np.array([1.0]),
                          engine="compiled-native")
    # Selection-level resolution falls back instead of raising.
    assert native.engine_for("float64", "native") == "compiled"
    assert native.engine_for("float32", "native") == "compiled-f32"


# ---------------------------------------------------------------------------
# Width-1 levels and single-gate circuits (flat-descriptor regressions)
# ---------------------------------------------------------------------------

def _engines_under_test():
    engines = ["compiled"]
    if native.native_available():
        engines.append("compiled-native")
    return engines


@pytest.mark.parametrize("kind", sorted(GATE_KINDS))
def test_single_gate_circuit_all_engines(kind):
    """One gate, width-1 buses: every level path at its minimum size.

    Locks in the in-place XOR mask path and the MUX three-leg split of
    the compiled plan -- and the native lowering's per-level records --
    at n=1, where a ``>= 2 ops per level`` assumption would break.
    """
    circuit = Circuit(f"single-{kind}")
    inputs = [circuit.input_bus(f"i{index}", 1)[0]
              for index in range(arity_of(kind))]
    circuit.output_bus("y", [circuit.gate(kind, *inputs)])
    delays = np.array([3.0])
    combos = 2 ** arity_of(kind)
    stim = lambda values: {  # noqa: E731
        f"i{index}": np.array(values, dtype=np.uint64) >> index & 1
        for index in range(arity_of(kind))
    }
    prev = stim(np.arange(combos).repeat(combos))
    new = stim(np.tile(np.arange(combos), combos))
    for glitch_model in ("sensitized", "value-change"):
        out_r, arr_r = circuit.propagate(prev, new, delays, 1.5,
                                         glitch_model, engine="reference")
        for engine in _engines_under_test():
            out_e, arr_e = circuit.propagate(prev, new, delays, 1.5,
                                             glitch_model, engine=engine)
            assert np.array_equal(out_e["y"], out_r["y"]), \
                (kind, glitch_model, engine)
            assert np.array_equal(arr_e["y"], arr_r["y"]), \
                (kind, glitch_model, engine)


def test_width_one_levels_chain_all_engines():
    """A chain whose every level holds exactly one op of one family.

    XNOR exercises the xor-family output mask at width 1, the MUX the
    three-leg stacked gather at width 1, and the INV/BUF pair the
    phantom constant-1 leg -- all with exactly one gate per level.
    """
    circuit = Circuit("width1-chain")
    a = circuit.input_bus("a", 1)[0]
    b = circuit.input_bus("b", 1)[0]
    s = circuit.input_bus("s", 1)[0]
    x1 = circuit.gate("XNOR2", a, b)
    x2 = circuit.gate("MUX2", s, x1, b)
    x3 = circuit.gate("INV", x2)
    x4 = circuit.gate("NOR2", x3, a)
    x5 = circuit.gate("BUF", x4)
    circuit.output_bus("y", [x1, x2, x3, x4, x5])
    rng = np.random.default_rng(5)
    draw = lambda: {name: rng.integers(0, 2, 64, dtype=np.uint64)  # noqa: E731
                    for name in ("a", "b", "s")}
    prev, new = draw(), draw()
    delays = rng.uniform(0.5, 9.0, circuit.n_gates)
    for glitch_model in ("sensitized", "value-change"):
        out_r, arr_r = circuit.propagate(prev, new, delays, 2.0,
                                         glitch_model, engine="reference")
        for engine in _engines_under_test():
            out_e, arr_e = circuit.propagate(prev, new, delays, 2.0,
                                             glitch_model, engine=engine)
            assert np.array_equal(out_e["y"], out_r["y"]), \
                (glitch_model, engine)
            assert np.array_equal(arr_e["y"], arr_r["y"]), \
                (glitch_model, engine)


def _wide_xor_chain(n_vectors=160):
    """A small circuit plus a 160-vector stimulus block."""
    circuit = Circuit("wide")
    a = circuit.input_bus("a", 4)
    b = circuit.input_bus("b", 4)
    row = [circuit.gate("XOR2", x, y) for x, y in zip(a, b)]
    for _ in range(3):
        row = [circuit.gate("AND2", row[i], row[(i + 1) % 4])
               for i in range(4)]
    circuit.output_bus("y", row)
    rng = np.random.default_rng(7)
    prev = {"a": rng.integers(0, 16, n_vectors, dtype=np.uint64),
            "b": rng.integers(0, 16, n_vectors, dtype=np.uint64)}
    new = {"a": rng.integers(0, 16, n_vectors, dtype=np.uint64),
           "b": rng.integers(0, 16, n_vectors, dtype=np.uint64)}
    return circuit, prev, new


@needs_native
def test_pooled_propagate_sees_in_place_delay_mutation():
    """Mutating a delay array in place must reach the native engine.

    The native per-row delay cache compares delays by value (like the
    numpy delay-tile cache); keying by object identity alone would
    serve stale delays after an in-place ``*=``.  The name predates
    the removal of the thread-shard pool; the cache it guards remains.
    """
    circuit, prev, new = _wide_xor_chain()
    delays = np.full(circuit.n_gates, 2.0)
    circuit.propagate(prev, new, delays, 1.0, engine="compiled-native")
    delays *= 3.0  # same object, new values
    _, native_arr = circuit.propagate(prev, new, delays, 1.0,
                                      engine="compiled-native")
    _, numpy_arr = circuit.propagate(prev, new, delays, 1.0,
                                     engine="compiled")
    assert np.array_equal(native_arr["y"], numpy_arr["y"])


def test_thread_sharded_edge_shapes():
    """Width-1 buses, single vectors and odd block widths, every engine.

    A one-XOR circuit at 1, 4 and 7 vectors (a single-vector block and
    widths that are not a multiple of 64, the packed stimulus word
    size) and a 160-vector block over a small circuit must match the
    reference engine.  The name predates the removal of the
    thread-shard pool, which once split these blocks.
    """
    single = Circuit("edge-single")
    a = single.input_bus("a", 1)[0]
    b = single.input_bus("b", 1)[0]
    single.output_bus("y", [single.gate("XOR2", a, b)])
    one_delay = np.array([3.0])
    rng = np.random.default_rng(13)
    cases = []
    for n_vectors in (1, 4, 7):
        blocks = [{name: rng.integers(0, 2, n_vectors, dtype=np.uint64)
                   for name in ("a", "b")} for _ in range(2)]
        cases.append((single, blocks[0], blocks[1], one_delay))
    wide, prev, new = _wide_xor_chain()
    cases.append((wide, prev, new, np.full(wide.n_gates, 2.0)))
    for circuit, prev, new, delays in cases:
        for glitch_model in ("sensitized", "value-change"):
            out_r, arr_r = circuit.propagate(prev, new, delays, 1.5,
                                             glitch_model,
                                             engine="reference")
            for engine in _engines_under_test():
                out_e, arr_e = circuit.propagate(prev, new, delays, 1.5,
                                                 glitch_model,
                                                 engine=engine)
                assert np.array_equal(out_e["y"], out_r["y"]), \
                    (circuit.name, len(prev["a"]), glitch_model, engine)
                assert np.array_equal(arr_e["y"], arr_r["y"]), \
                    (circuit.name, len(prev["a"]), glitch_model, engine)


def test_gather_scratch_fast_path_contiguity(monkeypatch):
    """The ``np.take(out=)`` gather fast path stays contiguous.

    numpy silently buffers (copies the whole source, measured ~90x)
    when either side of ``np.take(out=)`` is non-contiguous.  A
    full-width serial propagate must hit the fast path with both
    sides C-contiguous.
    """
    circuit, prev, new = _wide_xor_chain()
    delays = np.full(circuit.n_gates, 2.0)
    real_take = np.take
    out_calls = []

    def spy(a, indices, axis=None, out=None, mode="raise"):
        if out is not None:
            out_calls.append((a.flags.c_contiguous,
                              out.flags.c_contiguous))
        return real_take(a, indices, axis=axis, out=out, mode=mode)

    monkeypatch.setattr(np, "take", spy)
    circuit.propagate(prev, new, delays, 1.0, engine="compiled")
    assert out_calls, "serial propagate no longer uses np.take(out=)"
    assert all(src and dst for src, dst in out_calls)


def test_plan_invalidated_by_gate_add():
    circuit = Circuit("grow")
    a, b = circuit.input_bus("a", 1)[0], circuit.input_bus("b", 1)[0]
    x = circuit.gate("AND2", a, b)
    circuit.output_bus("x", [x])
    first = circuit.plan
    assert first.n_nets == circuit.n_nets
    assert circuit.evaluate({"a": [1], "b": [1]})["x"].tolist() == [1]
    y = circuit.gate("XOR2", a, x)
    assert circuit.plan is not first
    assert circuit.plan.n_nets == circuit.n_nets
    circuit._output_buses["x"].nets.append(y)  # widen for the check
    out = circuit.evaluate({"a": [1], "b": [1]})
    assert out["x"].tolist() == [1]  # and2=1, xor=0 -> bits 0b01


def test_plan_invalidated_by_input_bus_add():
    circuit = Circuit("grow-in")
    a = circuit.input_bus("a", 1)[0]
    circuit.output_bus("na", [circuit.gate("INV", a)])
    assert circuit.plan.n_nets == circuit.n_nets
    # A new input bus adds matrix rows too, so it must rebuild the plan.
    b = circuit.input_bus("b", 1)[0]
    circuit.output_bus("y", [circuit.gate("AND2", a, b)])
    assert circuit.plan.n_nets == circuit.n_nets
    out = circuit.evaluate({"a": np.array([0, 1, 1]),
                            "b": np.array([1, 0, 1])})
    assert out["na"].tolist() == [1, 0, 0]
    assert out["y"].tolist() == [0, 0, 1]


def test_delay_cache_cleared_lazily():
    from repro.netlist.library import CellLibrary
    library = CellLibrary()
    circuit = Circuit("lazy")
    a, b = circuit.input_bus("a", 1)[0], circuit.input_bus("b", 1)[0]
    circuit.gate("AND2", a, b)
    first = circuit.gate_delays(library, 0.7)
    assert len(first) == 1
    # Adding a gate only marks dirty; the next gate_delays() rebuilds.
    circuit.gate("OR2", a, b)
    assert circuit._dirty
    second = circuit.gate_delays(library, 0.7)
    assert len(second) == 2
    assert not circuit._dirty


def test_engine_argument_validated():
    circuit = Circuit("bad")
    a = circuit.input_bus("a", 1)[0]
    circuit.output_bus("y", [circuit.gate("BUF", a)])
    with pytest.raises(CircuitError, match="engine"):
        circuit.evaluate({"a": [0]}, engine="turbo")
    with pytest.raises(CircuitError, match="engine"):
        circuit.propagate({"a": [0]}, {"a": [1]}, np.array([1.0]),
                          engine="turbo")


# ---------------------------------------------------------------------------
# Monte-Carlo CPU reuse
# ---------------------------------------------------------------------------

class _RareInjector(FaultInjector):
    """One single-bit fault roughly every ``period`` ALU cycles."""

    def __init__(self, rng, period=60):
        super().__init__()
        self._rng = rng
        self._period = period

    def fault_mask(self, mnemonic):
        return 1 if self._rng.random() < 1.0 / self._period else 0


@pytest.fixture(scope="module")
def kernel():
    return build_kernel("median", "quick")


def test_cpu_reuse_matches_fresh_cpu(kernel):
    """run_trial(cpu=...) must be bit-identical to a fresh CPU."""
    fresh = run_trial(kernel, _RareInjector(np.random.default_rng(11)))
    cpu = Cpu(kernel.program, injector=None)
    cpu.run(kernel.entry)  # dirty the architectural state first
    reused = run_trial(kernel, _RareInjector(np.random.default_rng(11)),
                       cpu=cpu)
    assert fresh == reused


def test_cpu_reuse_rejects_config_mismatch(kernel):
    """A reused CPU built under a different memory map must not run."""
    cpu = Cpu(kernel.program, injector=None)
    other = MachineConfig(dmem_size=2 * cpu.config.dmem_size)
    with pytest.raises(ValueError, match="MachineConfig"):
        run_trial(kernel, _RareInjector(np.random.default_rng(3)),
                  config=other, cpu=cpu)


def test_reset_restores_dmem_snapshot(kernel):
    cpu = Cpu(kernel.program, injector=None)
    before = cpu.dmem.snapshot()
    cpu.run(kernel.entry)
    assert cpu.dmem.snapshot() != before  # the kernel writes outputs
    cpu.reset()
    assert cpu.dmem.snapshot() == before
    assert cpu.regs == [0] * 32 and cpu.cycles == 0
