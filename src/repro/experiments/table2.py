"""Table 2: overview of the timing-error models and their features.

The feature matrix is structural (it describes the models, not a
measurement), but it is generated from the implementation so the table
stays true to the code: each row is derived from the corresponding
injector class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fi.model_a import FixedProbabilityInjector
from repro.fi.model_b import StaInjector
from repro.fi.model_bplus import StaNoiseInjector
from repro.fi.model_c import StatisticalInjector
from repro.mc.units import ExperimentPlan


@dataclass(frozen=True)
class Table2Row:
    """Feature row of one fault-injection model."""

    model: str
    technique: str
    timing_data: str
    multi_vdd: bool
    vdd_noise: bool
    gate_level_aware: str
    instruction_aware: bool
    injector_class: str

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "fault injection technique": self.technique,
            "timing data": self.timing_data,
            "multi-Vdd": "yes" if self.multi_vdd else "no",
            "Vdd noise": "yes" if self.vdd_noise else "no",
            "gate-level aware": self.gate_level_aware,
            "instruction aware": "yes" if self.instruction_aware else "no",
            "injector": self.injector_class,
        }


def rows() -> list[Table2Row]:
    """The model feature matrix (paper Table 2)."""
    return [
        Table2Row(
            model=FixedProbabilityInjector.model_name,
            technique="fixed probability",
            timing_data="none",
            multi_vdd=False,
            vdd_noise=False,
            gate_level_aware="no",
            instruction_aware=False,
            injector_class=FixedProbabilityInjector.__name__,
        ),
        Table2Row(
            model=StaInjector.model_name,
            technique="fixed period violation",
            timing_data="STA",
            multi_vdd=True,
            vdd_noise=False,
            gate_level_aware="partially",
            instruction_aware=False,
            injector_class=StaInjector.__name__,
        ),
        Table2Row(
            model=StaNoiseInjector.model_name,
            technique="modulated period violation",
            timing_data="STA",
            multi_vdd=True,
            vdd_noise=True,
            gate_level_aware="partially",
            instruction_aware=False,
            injector_class=StaNoiseInjector.__name__,
        ),
        Table2Row(
            model=StatisticalInjector.model_name,
            technique="probabilistic period violation (using CDFs)",
            timing_data="DTA",
            multi_vdd=True,
            vdd_noise=True,
            gate_level_aware="yes",
            instruction_aware=True,
            injector_class=StatisticalInjector.__name__,
        ),
    ]


def plan(ctx, seed: int = 2016) -> ExperimentPlan:
    """Table 2 has no units: the matrix is derived from the classes."""
    return ExperimentPlan(units=[], assemble=lambda _: rows(),
                          render=lambda table: render(table))


def render(table: list[Table2Row] | None = None) -> str:
    """Human-readable feature matrix."""
    table = table if table is not None else rows()
    header = (f"{'model':6s} {'technique':44s} {'timing':7s} "
              f"{'mVdd':>5s} {'noise':>6s} {'gate':>10s} {'instr':>6s}")
    lines = [header, "-" * len(header)]
    for row in table:
        lines.append(
            f"{row.model:6s} {row.technique:44s} {row.timing_data:7s} "
            f"{'yes' if row.multi_vdd else 'no':>5s} "
            f"{'yes' if row.vdd_noise else 'no':>6s} "
            f"{row.gate_level_aware:>10s} "
            f"{'yes' if row.instruction_aware else 'no':>6s}")
    return "\n".join(lines)
