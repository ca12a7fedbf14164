"""The store's kind table: one body-schema check for every artifact kind.

Each kind's class declares its body format version as ``SCHEMA``; the
store checks a body against it once, in ``artifact_from_json``.  These
tests run one small artifact of every kind through that check, and
pin that importing the store loads no artifact module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.sta import build_report
from repro.campaign.failures import UnitFailure
from repro.experiments.ablations import AdderTopologyAblation
from repro.experiments.fig2 import CdfCurve
from repro.experiments.fig4 import InstructionMseCurve
from repro.experiments.table1 import Table1Row
from repro.mc.results import McPoint, TrialResult
from repro.mc.sweep import FrequencySweep
from repro.mc.units import work_unit_key
from repro.netlist.circuit import Circuit
from repro.store import KINDS, ResultStore, artifact_from_json, \
    current_schema, key_hash
from repro.timing.cdf import EndpointCdfs
from repro.timing.characterize import AluCharacterization, \
    CharacterizationConfig


def _point(label: str = "p") -> McPoint:
    point = McPoint(label=label, config={"frequency_hz": 7.25e8})
    point.add(TrialResult(finished=True, correct=False, error_value=0.5,
                          relative_error=0.125, fault_count=1,
                          kernel_cycles=100, alu_cycles=40, cycles=120))
    return point


def _characterization() -> AluCharacterization:
    config = CharacterizationConfig(n_cycles_per_instr=4, grid_points=8)
    critical = np.random.default_rng(5).uniform(600.0, 1500.0, (4, 32))
    cdfs = {"l.add": EndpointCdfs.from_critical("l.add", config.vdd,
                                                critical)}
    return AluCharacterization(config, cdfs, 1400.0)


def _sta_report():
    circuit = Circuit("rt")
    a = circuit.input_bus("a", 2)
    circuit.output_bus("y", [circuit.gate("XOR2", *a)])
    return build_report(circuit, np.array([3.25]), clock_ps=10.0)


#: One small artifact builder per kind.
ARTIFACTS = {
    "mc_point": _point,
    "frequency_sweep": lambda: FrequencySweep(
        kernel_name="median", frequencies_hz=[7.0e8],
        points=[_point("a")], sta_limit_hz=7.071e8, config={}),
    "alu_characterization": _characterization,
    "fig2_curve": lambda: CdfCurve(
        mnemonic="l.mul", bit=24, vdd=0.7,
        frequencies_hz=np.linspace(8e8, 2e9, 5),
        probabilities=np.linspace(0.0, 1.0, 5)),
    "fig4_curve": lambda: InstructionMseCurve(
        label="l.add 16-bit", mnemonic="l.add", operand_bits=15,
        frequencies_hz=np.linspace(6.5e8, 1.25e9, 5), mse=np.ones(5)),
    "adder_ablation": lambda: AdderTopologyAblation(
        poffs_hz={"ripple": (9.0e8, 7.5e8)}),
    "table1_row": lambda: Table1Row(
        name="median", size="32 elements", cycles=1000,
        kernel_cycles=900, compute_fraction=0.5, control_fraction=0.25,
        compute_rating="+", control_rating="-", error_metric="MSE"),
    "unit_failure": lambda: UnitFailure(
        label="u", error="Traceback", attempts=1, last_unix=0.0),
    "sta_report": _sta_report,
}


def test_every_kind_has_an_artifact():
    assert sorted(ARTIFACTS) == sorted(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_body_carries_the_class_schema(kind):
    body = ARTIFACTS[kind]().to_json()
    assert next(iter(body)) == "schema"
    assert body["schema"] == current_schema(kind)
    back = artifact_from_json(kind, json.loads(json.dumps(body)))
    assert json.dumps(back.to_json()) == json.dumps(body)


@pytest.mark.parametrize("kind", KINDS)
def test_bumped_body_schema_is_refused_and_quarantined(kind, tmp_path):
    artifact = ARTIFACTS[kind]()
    body = artifact.to_json()
    with pytest.raises(ValueError, match="schema"):
        artifact_from_json(kind, {**body, "schema": body["schema"] + 1})

    # The same body behind a valid envelope and checksum: only the
    # schema check can refuse it, and the store quarantines it.
    store = ResultStore(tmp_path / "store")
    key = work_unit_key(kind, "test", None, 0, {})
    store.put(key, artifact)
    path = store._object_path(store.key_of(key))
    envelope = json.loads(path.read_text())
    envelope["artifact"]["schema"] += 1
    envelope["body_sha256"] = key_hash(envelope["artifact"])
    path.write_text(json.dumps(envelope, separators=(",", ":")))
    assert store.get(key) is None
    assert not path.exists()
    assert list(store.quarantine_dir.iterdir())


def test_unknown_kind_raises():
    with pytest.raises(KeyError, match="unknown artifact kind"):
        current_schema("no_such_kind")


def test_importing_the_store_loads_no_artifact_module():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, repro.store; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            check=True, capture_output=True,
                            text=True).stdout.split()
    assert "repro.store" in loaded
    heavy = ("repro.mc", "repro.experiments", "repro.timing",
             "repro.analysis")
    assert [name for name in loaded
            if ".".join(name.split(".")[:2]) in heavy] == []
