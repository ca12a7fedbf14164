"""STA-bound-vs-DTA-distribution margin: the paper's core argument.

Static timing analysis signs a design off at the *worst possible*
arrival; dynamic timing analysis observes what the workload actually
exercises.  The gap between the two is the timing margin the paper's
better-than-worst-case operation harvests.  This driver renders that
gap directly: per functional unit, the static bound from the
:mod:`repro.timing.sta` envelope (persisted as an ``sta_report``
store artifact) against quantiles of the DTA critical-period
distribution from the standard characterization.

Soundness makes the figure double as a system-level oracle check: the
static bound must upper-bound *every* observed DTA critical period --
a negative margin here means an engine bug, not a tight design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.sta import StaReport, unit_report
from repro.experiments.context import NOMINAL_VDD, ExperimentContext
from repro.mc.units import ExperimentPlan, WorkUnit, work_unit_key
from repro.timing.characterize import alu_fingerprint

#: Representative mnemonic whose DTA distribution is compared against
#: each unit's static bound.
UNIT_MNEMONICS = (
    ("adder", "l.add"),
    ("multiplier", "l.mul"),
    ("shifter", "l.sll"),
    ("logic", "l.and"),
)

#: Critical paths persisted per unit report.
K_PATHS = 3

#: DTA distribution quantiles rendered against the bound.
QUANTILES = (0.50, 0.95, 1.00)

#: Width of the rendered margin bars, in characters.
_BAR = 44


@dataclass
class UnitMargin:
    """One unit's static bound against its DTA critical periods."""

    unit: str
    mnemonic: str
    report: StaReport
    #: Critical-period quantiles [ps] at :data:`QUANTILES`, plus min.
    dta_min_ps: float
    dta_quantiles_ps: tuple[float, ...]

    @property
    def sta_period_ps(self) -> float:
        """The static sign-off bound (worst arrival + capture)."""
        return self.report.min_period_ps

    @property
    def margin_ps(self) -> float:
        """Bound minus worst observed period; negative = engine bug."""
        return self.sta_period_ps - self.dta_quantiles_ps[-1]


@dataclass
class FigStaMarginResult:
    vdd: float
    clock_ps: float
    rows: list[UnitMargin]

    @property
    def sound(self) -> bool:
        """Every DTA observation inside its static bound."""
        return all(row.margin_ps >= 0.0 for row in self.rows)


def sta_report_units(ctx: ExperimentContext, seed: int,
                     vdd: float, clock_ps: float) -> list[WorkUnit]:
    """One ``sta_report`` work unit per functional unit.

    The static pass is cheap, but persisting reports makes them
    first-class campaign artifacts: reloadable bit-identically,
    listable via ``repro cache ls``, and keyed on the ALU fingerprint
    so netlist or library changes invalidate them.
    """
    alu = ctx.alu
    units: list[WorkUnit] = []
    for name, _ in UNIT_MNEMONICS:
        def compute(name: str = name) -> StaReport:
            return unit_report(alu, name, vdd, clock_ps, K_PATHS)

        units.append(WorkUnit(
            label=f"sta:{name}@{vdd:.2f}V",
            key=work_unit_key(
                "sta_report", "fig_sta_margin", ctx.scale, seed,
                {"unit": name, "vdd": float(vdd),
                 "clock_ps": float(clock_ps), "k_paths": K_PATHS,
                 "alu": alu_fingerprint(alu)},
                stream="sta"),
            compute=compute))
    return units


def plan(ctx: ExperimentContext, seed: int = 2016,
         vdd: float = NOMINAL_VDD) -> ExperimentPlan:
    """Per-unit STA report units, paired with DTA quantiles on assembly.

    Planning runs only STA; the characterization the quantiles read
    is forced when the reports assemble.
    """
    clock_ps = ctx.alu.worst_sta_period_ps(vdd)
    return ExperimentPlan(
        units=sta_report_units(ctx, seed, vdd, clock_ps),
        assemble=lambda reports: assemble(ctx, reports, vdd, clock_ps),
        render=lambda result: render(result))


def assemble(ctx: ExperimentContext, reports: list[StaReport],
             vdd: float, clock_ps: float) -> FigStaMarginResult:
    """Pair each unit's static report with its DTA quantiles."""
    characterization = ctx.characterization(vdd)
    rows: list[UnitMargin] = []
    for (name, mnemonic), report in zip(UNIT_MNEMONICS, reports):
        periods = characterization.cdfs[mnemonic].row_max_sorted
        quantiles = tuple(
            float(periods[min(int(q * (periods.size - 1)),
                              periods.size - 1)])
            for q in QUANTILES)
        rows.append(UnitMargin(
            unit=name, mnemonic=mnemonic, report=report,
            dta_min_ps=float(periods[0]),
            dta_quantiles_ps=quantiles))
    return FigStaMarginResult(vdd=vdd, clock_ps=clock_ps, rows=rows)


def render(result: FigStaMarginResult) -> str:
    """Tabulate and bar-chart the per-unit STA-vs-DTA margin."""
    lines = [
        f"STA bound vs DTA distribution @ {result.vdd:.2f} V  "
        f"(sign-off period {result.clock_ps:.1f} ps)",
        f"{'unit':12s} {'instr':8s} {'STA ps':>9s} {'DTA p50':>9s} "
        f"{'DTA p95':>9s} {'DTA max':>9s} {'margin':>8s} {'harvest':>8s}",
    ]
    for row in result.rows:
        p50, p95, p100 = row.dta_quantiles_ps
        harvest = 1.0 - p100 / row.sta_period_ps
        lines.append(
            f"{row.unit:12s} {row.mnemonic:8s} "
            f"{row.sta_period_ps:>9.1f} {p50:>9.1f} {p95:>9.1f} "
            f"{p100:>9.1f} {row.margin_ps:>8.1f} {harvest:>7.1%}")
    lines.append("")
    lines.append(f"  distribution inside the static bound "
                 f"(|min ... p50 ... max| = bound):")
    for row in result.rows:
        span = row.sta_period_ps
        marks = sorted(
            (max(0, min(_BAR - 1, int(value / span * _BAR))), symbol)
            for value, symbol in (
                (row.dta_min_ps, "."),
                (row.dta_quantiles_ps[0], "o"),
                (row.dta_quantiles_ps[-1], "#")))
        bar = [" "] * _BAR
        for position, symbol in marks:
            bar[position] = symbol
        lines.append(f"  {row.unit:12s} |{''.join(bar)}|")
    verdict = "sound: every DTA observation <= its static bound" \
        if result.sound else \
        "UNSOUND: a DTA critical period exceeds the static bound " \
        "-- engine bug"
    lines.append("")
    lines.append(f"  {verdict}")
    return "\n".join(lines)
