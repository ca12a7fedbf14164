"""Fig. 4 bench: per-instruction MSE versus frequency."""

from repro import experiments
from repro.experiments import fig4


def test_fig4(benchmark, scale, ctx, capsys):
    result = benchmark.pedantic(
        lambda: experiments.run("fig4", scale, context=ctx),
        rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + fig4.render(result))
    mul = result.curve("l.mul 32-bit").poff_hz()
    add32 = result.curve("l.add 32-bit").poff_hz()
    add16 = result.curve("l.add 16-bit").poff_hz()
    # Paper ordering: 685 MHz < 746 MHz < 877 MHz.
    assert mul < add32 < add16
    # MSE saturates near operand-width-determined maxima.
    assert result.curve("l.add 16-bit").mse.max() < 1e11
    assert result.curve("l.add 32-bit").mse.max() > 1e15
