"""Table 1: benchmark properties.

Regenerates the paper's benchmark-overview table from measurement: the
compute/control character is derived from the retired instruction mix
(profiled on the ISS), the cycle counts are measured fault-free, and
the size/metric columns come from the kernel definitions.

Each benchmark's profiled row is one **work unit** (store kind
``table1_row``): rows persist in the result store and ride the
campaign rails, so ``repro campaign run all`` covers the table and a
warm ``repro table1`` rerun profiles nothing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.bench.suite import BENCHMARK_NAMES, build_kernel
from repro.experiments.context import ExperimentContext
from repro.experiments.scale import Scale, get_scale
from repro.mc.units import ExperimentPlan, WorkUnit, work_unit_key
from repro.sim.cpu import Cpu
from repro.sim.machine import MachineConfig

#: Schema version of the Table1Row JSON representation.
TABLE1_ROW_SCHEMA = 1

#: The table's historical benchmark-input seed.  It is a *kernel data*
#: seed, not a Monte-Carlo master seed, so it stays fixed across
#: campaign seeds -- `repro table1` and every campaign share entries.
TABLE1_SEED = 42


def _rating(fraction: float, thresholds: tuple[float, float]) -> str:
    """Map a fraction to the paper's -, +, ++ rating scale."""
    low, high = thresholds
    if fraction >= high:
        return "++"
    if fraction >= low:
        return "+"
    return "-"


@dataclass
class Table1Row:
    """One benchmark's measured properties."""

    name: str
    size: str
    cycles: int
    kernel_cycles: int
    compute_fraction: float
    control_fraction: float
    compute_rating: str
    control_rating: str
    error_metric: str

    def as_dict(self) -> dict:
        return {
            "benchmark": self.name,
            "size": self.size,
            "cycles": self.cycles,
            "kernel_cycles": self.kernel_cycles,
            "compute": self.compute_rating,
            "control": self.control_rating,
            "compute_fraction": round(self.compute_fraction, 3),
            "control_fraction": round(self.control_fraction, 3),
            "output_error": self.error_metric,
        }

    # -- persistence -----------------------------------------------------

    def to_json(self) -> dict:
        """Lossless JSON body (schema ``TABLE1_ROW_SCHEMA``)."""
        return {
            "schema": TABLE1_ROW_SCHEMA,
            "name": self.name,
            "size": self.size,
            "cycles": int(self.cycles),
            "kernel_cycles": int(self.kernel_cycles),
            "compute_fraction": float(self.compute_fraction),
            "control_fraction": float(self.control_fraction),
            "compute_rating": self.compute_rating,
            "control_rating": self.control_rating,
            "error_metric": self.error_metric,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Table1Row":
        """Inverse of :meth:`to_json` (exact round-trip)."""
        if payload.get("schema") != TABLE1_ROW_SCHEMA:
            raise ValueError(
                f"Table1Row schema mismatch: stored "
                f"{payload.get('schema')}, current {TABLE1_ROW_SCHEMA}")
        return cls(
            name=payload["name"],
            size=payload["size"],
            cycles=payload["cycles"],
            kernel_cycles=payload["kernel_cycles"],
            compute_fraction=payload["compute_fraction"],
            control_fraction=payload["control_fraction"],
            compute_rating=payload["compute_rating"],
            control_rating=payload["control_rating"],
            error_metric=payload["error_metric"],
        )


_SIZE_LABELS = {
    "median": lambda p: f"{p['size']} values",
    "mat_mult_8bit": lambda p: f"{p['size']}x{p['size']} matr.",
    "mat_mult_16bit": lambda p: f"{p['size']}x{p['size']} matr.",
    "kmeans": lambda p: f"{p['points']} points (2D)",
    "dijkstra": lambda p: f"{p['nodes']} nodes",
}

#: Instruction classes counted as "compute" (multiplier-weighted data
#: path) vs "control" for the rating columns.
_COMPUTE_CLASSES = ("multiplier",)
_CONTROL_CLASSES = ("control", "compare")


def _profile_row(name: str, scale: Scale, seed: int) -> Table1Row:
    """Measure one benchmark's row on the profiling ISS."""
    kernel = build_kernel(name, scale.kernel_scale, seed)
    cpu = Cpu(kernel.program, config=MachineConfig(), profile=True)
    result = cpu.run(kernel.entry)
    if not result.finished:
        raise RuntimeError(f"{name} did not finish fault-free")
    counts = result.class_counts
    total = sum(counts.values()) or 1
    compute = sum(counts.get(c, 0) for c in _COMPUTE_CLASSES) / total
    control = sum(counts.get(c, 0) for c in _CONTROL_CLASSES) / total
    return Table1Row(
        name=name,
        size=_SIZE_LABELS[name](kernel.params),
        cycles=result.cycles,
        kernel_cycles=result.kernel_cycles,
        compute_fraction=compute,
        control_fraction=control,
        compute_rating=_rating(compute, (0.015, 0.08)),
        control_rating=_rating(control, (0.25, 0.40)),
        error_metric=kernel.metric_name,
    )


def row_units(scale: str | Scale = "default",
              seed: int = TABLE1_SEED) -> list[WorkUnit]:
    """One work unit per benchmark row, in table order.

    The key carries the kernel-input seed and the profiled machine
    configuration fingerprint (the defaults the profiling CPU runs
    with), so a machine-model change invalidates persisted rows.
    """
    scale = get_scale(scale)
    units = []
    for name in BENCHMARK_NAMES:
        def compute(name=name, scale=scale, seed=seed):
            return _profile_row(name, scale, seed)

        units.append(WorkUnit(
            label=f"table1:{name}",
            key=work_unit_key(
                "table1_row", "table1", scale, seed,
                {"benchmark": name,
                 "machine": asdict(MachineConfig())},
                stream="iss-profile"),
            compute=compute))
    return units


def plan(ctx: ExperimentContext, seed: int = 2016) -> ExperimentPlan:
    """Table 1 as row units.

    The rows always profile on :data:`TABLE1_SEED` (a kernel-data
    seed): the campaign ``seed`` does not change the table, so every
    campaign seed shares the same persisted rows.
    """
    return ExperimentPlan(units=row_units(ctx.scale),
                          assemble=list,
                          render=lambda rows: render(rows))


def render(rows: list[Table1Row]) -> str:
    """Human-readable table."""
    header = (f"{'benchmark':16s} {'size':16s} {'cycles':>9s} "
              f"{'compute':>8s} {'control':>8s}  output error")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:16s} {row.size:16s} {row.cycles:>9d} "
            f"{row.compute_rating:>8s} {row.control_rating:>8s}  "
            f"{row.error_metric}")
    return "\n".join(lines)
