"""The ALU's static timing numbers pinned across commits.

Model B's cliff, model B+'s onset, every swept frequency grid and the
STA limit rendered in the figures all derive from the endpoint STA
table of the default calibrated ALU.  These values were recorded from
the per-gate STA loop the compiled-plan envelope replaced; a change to
the STA, the calibration or the cell library that moves any of them by
one ulp fails here, before it silently shifts a figure.
"""

import hashlib

import pytest

from repro.netlist.calibrate import calibrated_alu
from repro.netlist.library import CHARACTERIZED_VDDS

#: ``float.hex(worst_sta_period_ps(vdd))`` per characterized voltage.
WORST_PERIOD_HEX = {
    0.6: "0x1.194db53c1857bp+11",
    0.7: "0x1.6199999999994p+10",
    0.8: "0x1.07876c75e2d3fp+10",
    0.9: "0x1.ab8898cc95c32p+9",
    1.0: "0x1.6c794836bc0ccp+9",
}

#: SHA-256 of each unit's ``endpoint_sta(0.7)`` float64 bytes.
ENDPOINT_STA_SHA256 = {
    "adder":
        "51653f927f28b4536acd0db56e5c654c3215ee7f223265cda0af95190e5c4f03",
    "multiplier":
        "61d9c2ca9465233cb4e1c0cac09edb81f9cab7f5e4507306a310fc54334b73f5",
    "shifter":
        "4b3dbe8d922a22ae1a0e251a42280b60d7102ac8ef6b67df5a882f3378255ddf",
    "logic":
        "1a74c3f7cecc63959f4a14cf2684a14cb72654c6b08be49c28657e2602892ce8",
}


@pytest.fixture(scope="module")
def default_alu():
    return calibrated_alu()


def test_pins_cover_every_characterized_voltage():
    assert set(WORST_PERIOD_HEX) == set(CHARACTERIZED_VDDS)


@pytest.mark.parametrize("vdd", CHARACTERIZED_VDDS)
def test_worst_sta_period_pinned(default_alu, vdd):
    assert float.hex(default_alu.worst_sta_period_ps(vdd)) == \
        WORST_PERIOD_HEX[vdd]


def test_endpoint_sta_bytes_pinned(default_alu):
    table = default_alu.endpoint_sta(0.7)
    assert set(table) == set(ENDPOINT_STA_SHA256)
    for name, bits in table.items():
        assert bits.dtype == "float64" and bits.shape == (32,)
        assert hashlib.sha256(bits.tobytes()).hexdigest() == \
            ENDPOINT_STA_SHA256[name], name
