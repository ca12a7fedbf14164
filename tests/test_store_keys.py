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
from repro.campaign.failures import failure_key
from repro.experiments import ablations, fig2, fig4, fig5, fig_sta_margin, \
    table1
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

#: The failure marker shadowing that Monte-Carlo point.
FAILURE_KEY = \
    "f67524cd6e2ff84858b0dc2e3fa027df6adea8262dba1685a6aaf6be149316e0"

#: The first work unit of each deterministic experiment at quick scale.
FIRST_UNIT_KEYS = {
    "fig2_curve":
        "d36eaa73df53c972d9459f8b77040f1b8ad2acc3f233f652f943b8736199fc08",
    "fig4_curve":
        "a6a3aece3973e98912c848f423f25f83830ccfe8f59436f0b3ab57a5c7762056",
    "table1_row":
        "c8b267f9e078961d2f93d32cba47909956866d118d16d144cfa509021960e64c",
    "sta_report":
        "32078ad013f7ad517c3902a3c774a1babb4a8461b59236f8aa4f20afe7725b87",
}

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


def _pinned_mc_point_key() -> dict:
    ctx = ExperimentContext.create("quick", 2016)
    kernel = build_kernel("median", ctx.scale.kernel_scale)
    return mc_point_key(
        "fig5", ctx.scale, 2016, kernel, ctx.scale.trials,
        {"vdd": 0.7, "sigma_v": 0.01, "model": "C",
         "frequency_hz": 700e6, **ctx.char_fingerprint(0.7)})


def test_mc_point_key_pinned():
    assert key_hash(_pinned_mc_point_key()) == MC_POINT_KEY


def test_failure_key_pinned():
    assert key_hash(failure_key(_pinned_mc_point_key())) == FAILURE_KEY


def _first_unit(kind: str, ctx: ExperimentContext):
    if kind == "fig2_curve":
        return fig2.curve_units(ctx, 2016)[0]
    if kind == "fig4_curve":
        return fig4.curve_units(ctx, 2016)[0]
    if kind == "table1_row":
        return table1.row_units("quick")[0]
    vdd = fig_sta_margin.NOMINAL_VDD
    return fig_sta_margin.sta_report_units(
        ctx, 2016, vdd, ctx.alu.worst_sta_period_ps(vdd))[0]


@pytest.mark.parametrize("kind", sorted(FIRST_UNIT_KEYS))
def test_work_unit_keys_pinned(kind):
    unit = _first_unit(kind, ExperimentContext.create("quick", 2016))
    assert unit.key["kind"] == kind
    assert key_hash(unit.key) == FIRST_UNIT_KEYS[kind]


def test_adder_topology_unit_keys_pinned():
    units = ablations.adder_topology_units("quick", seed=2016)
    assert [key_hash(unit.key) for unit in units] == ADDER_UNIT_KEYS
