"""Benchmark: regenerate Figure 6-9 (25% run-time bandwidth variation).

Paper claim: "Overall, the trends remain the same as in the 10% bandwidth
variation case.  BSOR algorithms show the least performance degradation in
presence of run-time bandwidth variations at low injection rates."
"""

from bench_utils import bench_config, bench_runner, emit, is_full_scale

from repro.experiments import render_figure, run_figure


def test_figure_6_9_transpose_25pct(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-9", config),
        kwargs=dict(routers=["dor", "yx", "bsor-dijkstra"],
                    runner=bench_runner()),
        rounds=1, iterations=1,
    )
    emit("Figure 6-9(a) transpose, 25% variation",
         render_figure("6-9", results))
    saturation = results.reduce("throughput", max, "display_name")
    if is_full_scale(config):
        assert saturation["BSOR-Dijkstra"] >= saturation["XY"]
    else:
        assert saturation["BSOR-Dijkstra"] > 0


def test_figure_6_9_degradation_is_bounded(benchmark):
    """BSOR's throughput under 25% variation stays close to its unvaried
    throughput (its low MCL leaves headroom to absorb the spikes)."""
    config = bench_config()

    def run():
        # Figure 6-1 is the same transpose sweep without variation
        return [run_figure(number, config, routers=["bsor-dijkstra"],
                           runner=bench_runner())
                for number in ("6-1", "6-9")]

    nominal, varied = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Figure 6-9 BSOR nominal vs 25% variation",
         render_figure("6-1", nominal) + "\n\n"
         + render_figure("6-9", varied))
    base = max(nominal.column("throughput"))
    under_variation = max(varied.column("throughput"))
    assert under_variation >= 0.75 * base
