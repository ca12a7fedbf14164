"""The static analysis plane: envelope, paths, oracle, lint, CLI.

The central property: the STA envelope of ``repro.timing.sta`` is an
*independent* bound on every dynamic engine -- random circuits, random
delays, any engine, any glitch model, every arrival is 0.0 or inside
[min, max], and the rank-1 critical path's forward-walked arrival
equals the max bound bitwise.  Everything else here (lint findings,
compile diagnostics, the persisted report, the CLI verbs) hangs off
that envelope.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.lint import (
    ERROR,
    WARNING,
    NetlistView,
    broken_fixture,
    lint_circuit,
    lint_netlist,
)
from repro.analysis.oracle import (
    BoundsViolation,
    bounds_check_enabled,
    check_bounds,
    maybe_check_bounds,
)
from repro.analysis.sta import StaReport, build_report
from repro.cli import main
from repro.netlist.circuit import ENGINES, Circuit
from repro.netlist.plan import compile_plan
from repro.store.schema import KINDS, artifact_from_json, current_schema
from repro.timing.sta import compute_envelope
from test_engine_equivalence import random_circuits


# ---------------------------------------------------------------------------
# The envelope property
# ---------------------------------------------------------------------------

@given(random_circuits())
@settings(max_examples=40, deadline=None)
def test_every_engine_inside_static_envelope(case):
    """Dynamic arrivals never escape the static [min, max] envelope.

    Every engine is held to the bounds exactly (zero tolerance).
    check_bounds raising is the failure mode.
    """
    circuit, prev, new, delays, arrival = case
    for engine in ENGINES:
        for glitch_model in ("sensitized", "value-change"):
            _, arrivals = circuit.propagate(prev, new, delays, arrival,
                                            glitch_model, engine=engine)
            check_bounds(circuit, delays, arrival, arrivals,
                         engine=engine, glitch_model=glitch_model)


@given(random_circuits())
@settings(max_examples=40, deadline=None)
def test_rank1_path_arrival_is_the_max_bound_bitwise(case):
    """The greedy path re-walk reproduces the envelope max exactly.

    The backward argmax retraces the maximum-reduce chain and the
    forward walk repeats the same IEEE add sequence, so the reported
    arrival is bitwise equal to the bus's largest finite bound -- and
    each step's arrival is exactly the previous plus its gate delay.
    """
    circuit, prev, new, delays, arrival = case
    report = build_report(circuit, delays, input_arrival_ps=arrival)
    bounds = report.bus_max_ps["y"]
    finite = bounds[np.isfinite(bounds)]
    if not finite.size:
        assert not report.paths  # nothing event-capable to report
        return
    paths = [path for path in report.paths if path.bus == "y"]
    assert paths
    assert paths[0].arrival_ps == float(finite.max())  # bitwise
    for path in paths:
        assert path.arrival_ps <= paths[0].arrival_ps
        walked = arrival
        for index, step in enumerate(path.steps):
            if index:
                walked = walked + step.delay_ps
            assert step.arrival_ps == walked
        assert path.steps[0].delay_ps == 0.0  # the launching input
        assert path.arrival_ps == walked


def test_const_fed_logic_gets_the_empty_interval():
    """Nets fed only by constants carry [+inf, -inf]: never an event."""
    circuit = Circuit("consty")
    a = circuit.input_bus("a", 1)[0]
    dead = circuit.gate("AND2", circuit.const(0), circuit.const(1))
    live = circuit.gate("OR2", a, dead)
    circuit.output_bus("y", [dead, live])
    delays = np.array([3.0, 5.0])
    envelope = compute_envelope(circuit.plan, delays, 2.0)
    rows = circuit.plan.rows[circuit.output_nets("y")]
    assert envelope.min_rows[rows[0]] == np.inf
    assert envelope.max_rows[rows[0]] == -np.inf
    # The live gate sees only its event-capable leg: 2.0 + 5.0.
    assert envelope.min_rows[rows[1]] == 7.0
    assert envelope.max_rows[rows[1]] == 7.0
    _, arrivals = circuit.propagate({"a": [0]}, {"a": [1]}, delays, 2.0)
    check_bounds(circuit, delays, 2.0, arrivals)
    assert arrivals["y"][0, 0] == 0.0  # the const-fed bit never moves


def test_envelope_rejects_negative_delays_and_arrival():
    circuit = Circuit("neg")
    a = circuit.input_bus("a", 1)[0]
    circuit.output_bus("y", [circuit.gate("BUF", a)])
    with pytest.raises(ValueError, match="negative gate delays"):
        compute_envelope(circuit.plan, np.array([-1.0]))
    with pytest.raises(ValueError, match="negative input arrival"):
        compute_envelope(circuit.plan, np.array([1.0]), -0.5)


# ---------------------------------------------------------------------------
# The runtime oracle hook
# ---------------------------------------------------------------------------

def _inv_chain():
    circuit = Circuit("oracle")
    a = circuit.input_bus("a", 1)[0]
    x = circuit.gate("INV", a)
    circuit.output_bus("y", [circuit.gate("INV", x)])
    return circuit, np.array([2.0, 3.0])


def test_oracle_trips_on_an_escaped_arrival():
    circuit, delays = _inv_chain()
    _, arrivals = circuit.propagate({"a": [0]}, {"a": [1]}, delays, 1.0)
    assert arrivals["y"][0, 0] == 6.0  # 1 + 2 + 3: the only path
    check_bounds(circuit, delays, 1.0, arrivals)  # sanity: in bounds
    for bad in (5.999, 6.001, -1.0):
        with pytest.raises(BoundsViolation, match="escapes the static"):
            check_bounds(circuit, delays, 1.0,
                         {"y": np.array([[bad]])})
    # 0.0 is always legal: "no event this cycle".
    check_bounds(circuit, delays, 1.0, {"y": np.array([[0.0]])})


def test_oracle_is_opt_in(monkeypatch):
    circuit, delays = _inv_chain()
    monkeypatch.delenv("REPRO_CHECK_BOUNDS", raising=False)
    assert not bounds_check_enabled()
    maybe_check_bounds(circuit, delays, 1.0,
                       {"y": np.array([[999.0]])})  # no-op while off
    monkeypatch.setenv("REPRO_CHECK_BOUNDS", "1")
    assert bounds_check_enabled()
    with pytest.raises(BoundsViolation):
        maybe_check_bounds(circuit, delays, 1.0,
                           {"y": np.array([[999.0]])})


def test_propagate_runs_the_oracle_when_armed(monkeypatch):
    """The hook is wired into Circuit.propagate itself, every engine."""
    circuit, delays = _inv_chain()
    monkeypatch.setenv("REPRO_CHECK_BOUNDS", "1")
    for engine in ENGINES:
        circuit.propagate({"a": [0]}, {"a": [1]}, delays, 1.0,
                          engine=engine)  # oracle green end-to-end


def test_oracle_catches_a_corrupted_engine(monkeypatch):
    """A kernel that returned wrong settles would trip the oracle.

    Simulated by corrupting the reference result before the check --
    the point is that the envelope is computed independently of the
    value under test.
    """
    circuit, delays = _inv_chain()
    _, arrivals = circuit.propagate({"a": [0]}, {"a": [1]}, delays, 1.0,
                                    engine="compiled")
    corrupted = {"y": arrivals["y"] + 0.25}
    with pytest.raises(BoundsViolation):
        check_bounds(circuit, delays, 1.0, corrupted, engine="compiled")


# ---------------------------------------------------------------------------
# compile_plan diagnostics (shared with the linter)
# ---------------------------------------------------------------------------

def test_compile_plan_names_the_combinational_cycle():
    fixture = broken_fixture()
    with pytest.raises(ValueError, match=r"n5 -> n6 -> n5"):
        compile_plan(fixture.n_nets, fixture.gate_kinds,
                     fixture.gate_inputs, fixture.gate_outputs,
                     set(fixture.input_nets))


def test_compile_plan_names_undriven_nets():
    with pytest.raises(ValueError, match=r"gate 0 \(AND2\).*\[4\]"):
        compile_plan(6, ["AND2"], [(2, 4)], [5], {2, 3})


# ---------------------------------------------------------------------------
# Lint
# ---------------------------------------------------------------------------

def test_lint_flags_the_broken_fixture():
    report = lint_netlist(broken_fixture())
    assert not report.ok
    codes = {finding.code: finding for finding in report.findings}
    assert codes["comb-loop"].severity == ERROR
    assert "n5 -> n6 -> n5" in codes["comb-loop"].message
    assert codes["undriven-net"].severity == ERROR
    assert 4 in codes["undriven-net"].nets
    assert codes["floating-input"].severity == WARNING
    assert codes["floating-input"].nets == (3,)
    payload = report.to_json()
    assert payload["ok"] is False
    assert {f["code"] for f in payload["findings"]} == set(codes)


def test_lint_clean_circuit():
    circuit = Circuit("clean")
    a = circuit.input_bus("a", 1)[0]
    b = circuit.input_bus("b", 1)[0]
    circuit.output_bus("y", [circuit.gate("AND2", a, b)])
    report = lint_circuit(circuit)
    assert report.ok
    assert "clean" in report.render()


def test_lint_flags_dead_gates_and_floating_inputs():
    circuit = Circuit("suspect")
    a = circuit.input_bus("a", 1)[0]
    circuit.input_bus("unused", 1)
    dead = circuit.gate("INV", a)  # never reaches an output
    circuit.gate("INV", dead)
    circuit.output_bus("y", [circuit.gate("BUF", a)])
    report = lint_circuit(circuit)
    codes = {finding.code for finding in report.findings}
    assert codes == {"dead-gate", "floating-input"}
    assert not report.errors and len(report.warnings) == 2


def test_lint_flags_multiple_drivers():
    view = NetlistView(name="multi", n_nets=5, gate_kinds=["INV", "INV"],
                       gate_inputs=[(2,), (3,)], gate_outputs=[4, 4],
                       input_nets=[2, 3], output_nets=[4])
    report = lint_netlist(view)
    assert any(f.code == "multi-driven-net" and f.nets == (4,)
               for f in report.errors)


def test_lint_fanout_histogram():
    circuit = Circuit("fan")
    a = circuit.input_bus("a", 1)[0]
    outs = [circuit.gate("INV", a) for _ in range(3)]
    circuit.output_bus("y", outs)
    histogram = lint_circuit(circuit).fanout_histogram
    assert histogram[3] == 1  # the input net feeds three gates
    assert histogram[1] == 3  # each INV output feeds only the bus


# ---------------------------------------------------------------------------
# The persisted report artifact
# ---------------------------------------------------------------------------

def test_sta_report_registered_and_roundtrips():
    assert "sta_report" in KINDS
    assert current_schema("sta_report") == StaReport.SCHEMA
    circuit = Circuit("rt")
    a = circuit.input_bus("a", 2)
    circuit.output_bus("y", [circuit.gate("XOR2", *a),
                             circuit.gate("AND2", circuit.const(0),
                                          circuit.const(1))])
    report = build_report(circuit, np.array([3.25, 1.5]),
                          input_arrival_ps=0.75, overhead_ps=2.0,
                          clock_ps=10.0)
    payload = json.loads(json.dumps(report.to_json(), sort_keys=True))
    back = artifact_from_json("sta_report", payload)
    assert isinstance(back, StaReport)
    # Lossless: the re-serialized body is byte-identical (inf bounds
    # of the const-fed bit included).
    assert json.dumps(back.to_json(), sort_keys=True) == \
        json.dumps(report.to_json(), sort_keys=True)
    assert back.worst_arrival_ps == 4.0  # 0.75 + 3.25, bitwise
    assert back.min_period_ps == 6.0
    assert back.min_slack_ps == 4.0  # 10 - 2 - 4
    slack = back.slack_ps("y")
    assert slack is not None
    assert slack[1] == 8.0  # never-switching bit: full budget


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------

def test_cli_lint_broken_fixture_fails(capsys):
    assert main(["lint", "broken-fixture"]) == 1
    out = capsys.readouterr().out
    assert "comb-loop" in out and "floating-input" in out


def test_cli_lint_broken_fixture_json(capsys):
    assert main(["lint", "broken-fixture", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False


def test_cli_lint_clean_unit_passes(capsys):
    assert main(["lint", "adder"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_sta_signs_off_at_the_calibrated_clock(capsys):
    assert main(["sta", "multiplier"]) == 0
    out = capsys.readouterr().out
    assert "[MET]" in out and "path #1" in out


def test_cli_sta_json_and_violated_clock(capsys):
    assert main(["sta", "adder", "--clock-ps", "10", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == StaReport.SCHEMA
    assert payload["clock_ps"] == 10.0


def test_cli_engines_reports_the_oracle(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CHECK_BOUNDS", raising=False)
    assert main(["engines"]) == 0
    assert "REPRO_CHECK_BOUNDS" in capsys.readouterr().out
    monkeypatch.setenv("REPRO_CHECK_BOUNDS", "1")
    assert main(["engines"]) == 0
    assert "ACTIVE" in capsys.readouterr().out


def test_cli_engines_lists_exactly_the_two_engines_and_the_oracle(capsys):
    assert main(["engines"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows[1:]] == \
        ["reference", "compiled", "oracle"]


@pytest.mark.parametrize("argv", [
    ["fig2", "--engine", "native"],
    ["engines", "--strict"],
])
def test_cli_retired_engine_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
