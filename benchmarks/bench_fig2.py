"""Fig. 2 bench: DTA timing-error CDFs per instruction/bit/voltage."""

import numpy as np

from repro import experiments
from repro.experiments import fig2


def test_fig2(benchmark, scale, ctx, capsys):
    result = benchmark.pedantic(
        lambda: experiments.run("fig2", scale, context=ctx),
        rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + fig2.render(result))
    for curve in result.curves:
        assert np.all(np.diff(curve.probabilities) >= -1e-12)
    # Higher supply voltage shifts CDFs right.
    assert (result.curve("l.mul", 24, 0.8).probabilities.sum()
            < result.curve("l.mul", 24, 0.7).probabilities.sum())
    # High-significance bits fail no later than low-significance bits.
    onset = lambda c: c.first_failure_hz() or float("inf")
    assert onset(result.curve("l.add", 24, 0.7)) <= onset(
        result.curve("l.add", 3, 0.7))
