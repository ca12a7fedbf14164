"""Fig. 7 bench: output error vs normalized core power (voltage scaling)."""

import pytest

from repro import experiments
from repro.experiments import fig7


def test_fig7(benchmark, scale, ctx, capsys):
    result = benchmark.pedantic(
        lambda: experiments.run("fig7", scale, context=ctx),
        rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + fig7.render(result))
    no_noise = result.curve(0.0)
    powers = [p.normalized_power for p in no_noise.points]
    assert powers == sorted(powers)
    assert powers[-1] == pytest.approx(1.0)
    # Error-free voltage reduction window exists without noise
    # (paper: PoFF at 0.667 V / 0.93x power).
    poff = no_noise.poff_vdd()
    assert poff is not None and poff < 0.70
    assert no_noise.power_at_poff() < 1.0
    # Heavy noise erodes the window: its PoFF voltage (if any) is no
    # lower than the no-noise one.
    heavy = result.curve(0.025)
    if heavy.poff_vdd() is not None:
        assert heavy.poff_vdd() >= poff
