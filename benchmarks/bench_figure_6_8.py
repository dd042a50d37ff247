"""Benchmark: regenerate Figure 6-8 (10% run-time bandwidth variation).

Paper claims: with 10% variation the transpose results barely move for any
algorithm, and on H.264 the headroom BSOR's low MCL leaves actually helps it
absorb the demand spikes.  Routes are computed from the *nominal* estimates;
only the run-time injection rates vary.
"""

from bench_utils import bench_config, bench_runner, emit, is_full_scale

from repro.experiments import render_figure, run_figure

ROUTERS = ["dor", "yx", "bsor-dijkstra"]


def test_figure_6_8_transpose_10pct(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-8", config),
        kwargs=dict(routers=ROUTERS,
                    runner=bench_runner()),
        rounds=1, iterations=1,
    )
    emit("Figure 6-8(a) transpose, 10% variation", render_figure("6-8", results))
    saturation = results.reduce("throughput", max, "display_name")
    if is_full_scale(config):
        assert saturation["BSOR-Dijkstra"] >= saturation["XY"]
    else:
        assert saturation["BSOR-Dijkstra"] > 0


def test_figure_6_8_h264_10pct(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-8", config),
        kwargs=dict(workload="h264", routers=ROUTERS, runner=bench_runner()),
        rounds=1, iterations=1,
    )
    emit("Figure 6-8(b) H.264, 10% variation", render_figure("6-8", results))
    saturation = results.reduce("throughput", max, "display_name")
    if is_full_scale(config):
        assert saturation["BSOR-Dijkstra"] >= 0.85 * max(saturation["XY"],
                                                         saturation["YX"])
    else:
        assert saturation["BSOR-Dijkstra"] > 0
