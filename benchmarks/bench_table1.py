"""Table 1 bench: regenerate the benchmark-properties table."""

from repro import experiments
from repro.experiments import table1


def test_table1(benchmark, scale, capsys):
    rows = benchmark.pedantic(
        lambda: experiments.run("table1", scale), rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + table1.render(rows))
    by_name = {row.name: row for row in rows}
    assert set(by_name) == {"median", "mat_mult_8bit", "mat_mult_16bit",
                            "kmeans", "dijkstra"}
    # Paper Table 1 shape: matmul is the compute kernel, median has no
    # multiplies, dijkstra and median are control oriented.
    assert by_name["mat_mult_8bit"].compute_rating == "++"
    assert by_name["median"].compute_fraction == 0.0
    assert by_name["dijkstra"].control_fraction > 0.3
    for row in rows:
        assert row.kernel_cycles / row.cycles > 0.95
