"""Fig. 1 bench: models B / B+ on the median benchmark."""

from repro import experiments
from repro.experiments import fig1


def test_fig1(benchmark, scale, ctx, capsys):
    results = benchmark.pedantic(
        lambda: experiments.run("fig1", scale, context=ctx),
        rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + fig1.render(results))
    by_sigma = {r.sigma_v: r for r in results}
    # Model B's cliff sits at the STA limit; noise shifts B+ down.
    assert by_sigma[0.0].onset_hz / 1e6 > 700
    assert by_sigma[0.025].onset_hz < by_sigma[0.010].onset_hz
    for result in results:
        correct = result.sweep.metric_series("p_correct")
        # Hard threshold: fully correct at the bottom of the narrow
        # sweep, fully broken at the top.
        assert correct[0] == 1.0
        assert correct[-1] == 0.0
