"""Model C's Monte-Carlo points pinned across commits.

Every model-C figure is a sweep of :func:`~repro.mc.runner.run_point`
calls whose trials consume one random stream: the effective-period
noise, the fast-path uniforms and the conditional mask samples.  These
hashes were recorded from the injector as it stood before its fault
table was compiled into one period grid; a change to the grid, the
draw limits, the schedule scan or the stream that moves one draw fails
here, before it silently shifts a figure.

Each pinned value is the SHA-256 of the canonical JSON of
``McPoint.to_json()`` (every trial's counters, cycles and error
metrics) for one point of the quick ``mat_mult_16bit`` kernel, whose
``l.mul`` ops fault from about 690 MHz at 0.7 V.
"""

import hashlib

import pytest

from repro.bench.suite import build_kernel
from repro.fi.model_c import StatisticalInjector
from repro.mc.runner import golden_run, run_point
from repro.store.serialize import canonical_json
from repro.timing.characterize import (
    CharacterizationConfig,
    get_characterization,
)
from repro.timing.noise import VoltageNoise

#: Characterization every pinned point reads.
CONFIG = CharacterizationConfig(n_cycles_per_instr=256, seed=7)

#: (MHz, noise sigma [V], semantics, trials, seed) -> SHA-256.
POINTS = {
    (690.0, 0.010, "flip", 8, 1):
        "80aa6a1bb111c4cd57521879127d7662cf30480b7e9b5d4a0e2b2e6f8ae3f5b3",
    (690.0, 0.010, "stale", 8, 2):
        "0f2bd8ada9f762d611644d8f55a7418a4a163c84da17671996e6ca654c05457c",
    (720.0, 0.0, "flip", 8, 3):
        "875dc272f9b7bd5239162a4372023222353fea52e0c6cdfe3b96803bf84333c8",
    (730.0, 0.0, "stale", 8, 4):
        "02b1f23fa6b663bb240a340173929ef137d5e5a2e0548f7bb5d6848e7e1e70e2",
    (686.0, 0.010, "stale", 30, 5):
        "d9299ae640d4885fab6f1f2f6b0a839b5045309475707734484b6c50b04cd586",
}

#: The point whose stream runs past a 65,536-value refill.
REFILL = (686.0, 0.010, "stale", 30, 5)


@pytest.fixture(scope="module")
def kernel():
    instance = build_kernel("mat_mult_16bit", "quick")
    golden_run(instance)
    return instance


@pytest.mark.parametrize("key", list(POINTS), ids=[
    f"{mhz}MHz-{sigma * 1e3:g}mV-{semantics}-{n_trials}x-seed{seed}"
    for mhz, sigma, semantics, n_trials, seed in POINTS])
def test_point_pinned(kernel, alu, vdd_model, key):
    mhz, sigma, semantics, n_trials, seed = key
    characterization = get_characterization(alu, CONFIG)
    noise = VoltageNoise(sigma)

    def factory(rng):
        return StatisticalInjector(characterization, mhz * 1e6, noise,
                                   vdd_model=vdd_model, rng=rng,
                                   semantics=semantics)
    point = run_point(kernel, factory, n_trials=n_trials, seed=seed)
    assert any(trial.fault_count for trial in point.trials)
    if key == REFILL:
        assert sum(trial.alu_cycles for trial in point.trials) > 65536
    assert hashlib.sha256(canonical_json(point.to_json()).encode()) \
        .hexdigest() == POINTS[key]
