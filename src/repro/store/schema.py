"""Artifact kind registry: one table from kind to artifact class.

Every persisted artifact kind is one row of :data:`_CLASSES`: the
module and name of the class whose ``to_json``/``from_json`` pair
(de)serializes it.  The class declares its own body format version as
``SCHEMA``; its ``to_json`` writes it as the body's ``"schema"`` field
and every unit key carries it, so bumping it silently invalidates every
stored entry of that kind (old entries are never misread -- they become
unreferenced and are reclaimed by ``gc``).  :func:`artifact_from_json`
checks a body's version once, for every kind.

The classes are imported lazily (``importlib``, on first use of a
kind): the store package stays import-light and free of cycles
(``mc`` and ``timing`` never import it at module scope in the other
direction).
"""

from __future__ import annotations

import importlib
from functools import cache

#: Kind -> (module, class name) of its artifact class.
_CLASSES = {
    "mc_point": ("repro.mc.results", "McPoint"),
    "frequency_sweep": ("repro.mc.sweep", "FrequencySweep"),
    "alu_characterization":
        ("repro.timing.characterize", "AluCharacterization"),
    "fig2_curve": ("repro.experiments.fig2", "CdfCurve"),
    "fig4_curve": ("repro.experiments.fig4", "InstructionMseCurve"),
    "adder_ablation":
        ("repro.experiments.ablations", "AdderTopologyAblation"),
    "table1_row": ("repro.experiments.table1", "Table1Row"),
    "unit_failure": ("repro.campaign.failures", "UnitFailure"),
    "sta_report": ("repro.analysis.sta", "StaReport"),
}

#: Artifact kinds the store can hold.
KINDS = tuple(_CLASSES)


@cache
def _artifact_class(kind: str) -> type:
    try:
        module, name = _CLASSES[kind]
    except KeyError:
        raise KeyError(f"unknown artifact kind {kind!r}; known: "
                       f"{sorted(KINDS)}") from None
    return getattr(importlib.import_module(module), name)


def current_schema(kind: str) -> int:
    """Current schema version of an artifact kind."""
    return _artifact_class(kind).SCHEMA


def artifact_to_json(kind: str, artifact) -> dict:
    """Serialize an artifact into its canonical JSON body."""
    _artifact_class(kind)  # validate the kind early
    return artifact.to_json()


def artifact_from_json(kind: str, payload: dict):
    """Deserialize an artifact body of a known kind.

    Raises ``ValueError`` when the body's ``"schema"`` is not the
    class's current one.
    """
    cls = _artifact_class(kind)
    if payload.get("schema") != cls.SCHEMA:
        raise ValueError(
            f"{kind} schema mismatch: stored {payload.get('schema')}, "
            f"current {cls.SCHEMA}")
    return cls.from_json(payload)
