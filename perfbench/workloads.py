"""Workload definitions shared by run.py and its child passes.

``tiny`` variants run the same code paths in seconds; the self-test
uses them.
"""

from __future__ import annotations

#: Workload name -> (kind, campaign jobs).
WORKLOADS = {
    "campaign-quick": ("campaign", 1),
    "campaign-quick-jobs2": ("campaign", 2),
    "mc-paper-sweep": ("sweep", None),
}

#: Workload seeds map onto this many program seeds, each with a
#: recorded output digest in ``digests.json``.
SEED_SLOTS = 8

#: Program seed of slot 0 (the repo's default experiment seed).
BASE_SEED = 2016


def program_seed(workload_seed: int) -> int:
    """Seed handed to the program for a benchmark ``--seed``."""
    return BASE_SEED + workload_seed % SEED_SLOTS


def _tiny_scale():
    from repro.experiments.scale import Scale
    return Scale(name="perfbench-tiny", trials=2, freq_points=2,
                 kernel_scale="quick", char_cycles=32, fig4_samples=32,
                 voltage_points=2)


def campaign_config(tiny: bool) -> dict:
    if tiny:
        return {"experiment": "fig5", "scale": _tiny_scale()}
    return {"experiment": "all", "scale": "quick"}


def sweep_config(tiny: bool) -> dict:
    """fig5's model-C operating point: Vdd 0.7 V, sigma 10 mV."""
    if tiny:
        return {"scale": _tiny_scale(), "ctx_seed": BASE_SEED,
                "kernel_scale": "quick", "kernels": ("median",),
                "vdd": 0.7, "sigma_v": 0.010, "points": 3, "trials": 2}
    return {"scale": "paper", "ctx_seed": BASE_SEED,
            "kernel_scale": "paper",
            "kernels": ("median", "mat_mult_16bit"),
            "vdd": 0.7, "sigma_v": 0.010, "points": 7, "trials": 50}
