"""Monte-Carlo harness: trials, aggregation, sweeps, statistics."""

from repro.mc.results import McPoint, TrialResult
from repro.mc.runner import (
    BUDGET_FACTOR,
    GoldenRun,
    golden_cycles,
    golden_run,
    run_point,
    run_trial,
    trial_budget,
)
from repro.mc.stats import geometric_mean, mean, std, wilson_interval
from repro.mc.sweep import (
    FrequencySweep,
    frequency_grid,
    sweep_frequencies,
    sweep_units,
)
from repro.mc.units import (
    WorkUnit,
    mc_point_key,
    resolve_units,
    work_unit_key,
)

__all__ = [
    "BUDGET_FACTOR",
    "FrequencySweep",
    "GoldenRun",
    "McPoint",
    "TrialResult",
    "WorkUnit",
    "frequency_grid",
    "geometric_mean",
    "golden_cycles",
    "golden_run",
    "mc_point_key",
    "mean",
    "resolve_units",
    "run_point",
    "run_trial",
    "std",
    "sweep_frequencies",
    "sweep_units",
    "trial_budget",
    "wilson_interval",
    "work_unit_key",
]
