"""Experiment drivers regenerating every table and figure of the paper.

Each experiment module exports ``plan(ctx, seed, **options)``, which
returns its :class:`~repro.mc.units.ExperimentPlan`.
:data:`EXPERIMENTS` names the modules; the CLI, the campaign
orchestrator and :func:`run` all read it.
"""

from repro.experiments import ablations, fig1, fig2, fig4, fig5, fig6, fig7
from repro.experiments import fig_sta_margin, table1, table2
from repro.experiments.context import (
    ExperimentContext,
    NOISE_SIGMAS,
    NOMINAL_VDD,
)
from repro.experiments.scale import DEFAULT, PAPER, QUICK, Scale, get_scale
from repro.mc.units import resolve_units

#: Experiment name -> module, in ``repro all`` order.  Modules, not
#: functions: a plan looks its module's functions up at call time.
EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fig1": fig1,
    "fig2": fig2,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig-sta-margin": fig_sta_margin,
    "ablations": ablations,
}


def run(name: str, scale: str | Scale = "default", seed: int = 2016, *,
        context: ExperimentContext | None = None, store=None,
        **options):
    """Resolve one experiment's units in order and assemble its result.

    ``options`` go to the module's ``plan``.  With a ``store`` (or a
    store-attached ``context``) stored units reload bit-identically
    and fresh ones persist, so a warm rerun simulates nothing.
    """
    ctx = context or ExperimentContext.create(scale, seed, store=store)
    plan = EXPERIMENTS[name].plan(ctx, seed, **options)
    artifacts, _, _ = resolve_units(
        plan.units, store if store is not None else ctx.store)
    return plan.assemble(artifacts)


__all__ = [
    "DEFAULT",
    "EXPERIMENTS",
    "ExperimentContext",
    "NOISE_SIGMAS",
    "NOMINAL_VDD",
    "PAPER",
    "QUICK",
    "Scale",
    "ablations",
    "fig1",
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig_sta_margin",
    "get_scale",
    "run",
    "table1",
    "table2",
]
