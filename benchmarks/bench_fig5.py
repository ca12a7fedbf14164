"""Fig. 5 bench: median benchmark under model C, 6 operating points."""

from repro import experiments
from repro.experiments import fig5


def test_fig5(benchmark, scale, ctx, capsys):
    results = benchmark.pedantic(
        lambda: experiments.run("fig5", scale, context=ctx),
        rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + fig5.render(results))
    assert len(results) == 6
    for result in results:
        correct = result.sweep.metric_series("p_correct")
        rates = result.sweep.metric_series("fi_rate_per_kcycle")
        assert correct[0] == 1.0 and correct[-1] == 0.0
        assert rates[-1] > rates[0]
    # Frequency over-scaling gain exists without noise at 0.7 V...
    no_noise = next(r for r in results
                    if r.config.vdd == 0.7 and r.config.sigma_v == 0.0)
    assert no_noise.poff_gain is not None and no_noise.poff_gain > 0
    # ...and shrinks (or vanishes) at sigma = 25 mV, as in the paper.
    heavy_noise = next(r for r in results
                       if r.config.vdd == 0.7 and r.config.sigma_v == 0.025)
    if heavy_noise.poff_gain is not None:
        assert heavy_noise.poff_gain < no_noise.poff_gain
