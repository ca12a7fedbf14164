"""Ablation bench: design-choice studies called out in DESIGN.md."""

from repro import experiments
from repro.experiments import ablations


def test_ablations(benchmark, scale, ctx, capsys):
    glitch, semantics, adders = benchmark.pedantic(
        lambda: experiments.run("ablations", scale, context=ctx),
        rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + ablations.render_all(glitch, semantics, adders))
    assert glitch.headroom_inflation("l.mul") > 0.0
    assert adders.width_spread("ripple") >= adders.width_spread(
        "kogge-stone")
