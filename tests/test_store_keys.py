"""Store keys pinned across commits.

A result store only keeps serving when the key payloads of its entries
stay byte-identical: a changed characterization config, fingerprint or
unit condition silently turns every stored entry into a miss.  These
hashes were recorded from the code that wrote existing stores; a
refactor that moves key fields around must leave them unchanged.
Building the keys runs no DTA and no Monte-Carlo simulation.
"""

import pytest

from repro.bench.suite import build_kernel
from repro.experiments import ablations, fig5
from repro.experiments.context import ExperimentContext
from repro.mc.units import mc_point_key
from repro.netlist.calibrate import calibrated_alu
from repro.store.serialize import key_hash
from repro.timing.characterize import characterization_key

#: characterization_key hashes per (scale, vdd), seed 2016.
CHARACTERIZATION_KEYS = {
    ("quick", 0.7):
        "10c5723d63a0a240b12e8d9aabce21d3846580b4a3aff3a66372d168953e5993",
    ("quick", 0.8):
        "c3f49c78a7ed60e0cd10054413ed2ba2915092dfe6ada5becc23c14ea432800b",
    ("paper", 0.7):
        "068e7bda3f57e13857ea3ada35eabdc43ee3d614f31e1e9fd96e9dc2520d9f74",
    ("paper", 0.8):
        "4b43ac8269e4c696992ef799e097d7c25ee84f1172fd97a7fdd798687937a32a",
}

#: One fig5-style Monte-Carlo point at quick scale (see test below).
MC_POINT_KEY = \
    "6c78c54f25ac2fe0b2d496c010be04eec283362c76ff554e2b9e3fe7a762a8be"

#: The adder-topology ablation units at quick scale, in unit order.
ADDER_UNIT_KEYS = [
    "a22f4ceb00b728c02711fefa9b5944364726caddd097a3bafe58104c25e5f43f",
    "17bacc8c5fce9a55fcebbb29f33bbc6d7a0e7b64ab7decf82938b1e6f8936d8a",
    "90d52c8ab09ec04d279a61cfdbc343abe4e391daacae76488148ab48b4a84e8b",
]


@pytest.mark.parametrize("scale", ["quick", "paper"])
@pytest.mark.parametrize("vdd", fig5.PLOT_VDDS)
def test_characterization_keys_pinned(scale, vdd):
    ctx = ExperimentContext.create(scale, 2016)
    key = characterization_key(calibrated_alu(), ctx.char_config(vdd))
    assert key_hash(key) == CHARACTERIZATION_KEYS[(scale, vdd)]


def test_mc_point_key_pinned():
    ctx = ExperimentContext.create("quick", 2016)
    kernel = build_kernel("median", ctx.scale.kernel_scale)
    key = mc_point_key(
        "fig5", ctx.scale, 2016, kernel, ctx.scale.trials,
        {"vdd": 0.7, "sigma_v": 0.01, "model": "C",
         "frequency_hz": 700e6, **ctx.char_fingerprint(0.7)})
    assert key_hash(key) == MC_POINT_KEY


def test_adder_topology_unit_keys_pinned():
    units = ablations.adder_topology_units("quick", seed=2016)
    assert [key_hash(unit.key) for unit in units] == ADDER_UNIT_KEYS
