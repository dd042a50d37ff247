"""Benchmark: regenerate Figure 6-10 (50% run-time bandwidth variation).

Paper claims: 50% variation has the largest effect of the three levels.  On
transpose BSOR absorbs the variation and keeps its throughput advantage; on
H.264 the estimates are now so wrong that the minimal algorithms (XY, YX,
ROMM) overtake the non-minimal schemes — i.e. this is where the paper itself
says BSOR's effectiveness "can no longer be guaranteed".
"""

from bench_utils import bench_config, bench_runner, emit, is_full_scale

from repro.experiments import render_figure, run_figure

ROUTERS = ["dor", "yx", "bsor-dijkstra"]


def test_figure_6_10_transpose_50pct(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-10", config),
        kwargs=dict(routers=ROUTERS,
                    runner=bench_runner()),
        rounds=1, iterations=1,
    )
    emit("Figure 6-10(a) transpose, 50% variation", render_figure("6-10", results))
    saturation = results.reduce("throughput", max, "display_name")
    if is_full_scale(config):
        # Transpose: BSOR's advantage survives even 50% mis-estimation.
        assert saturation["BSOR-Dijkstra"] >= saturation["XY"]
    else:
        assert saturation["BSOR-Dijkstra"] > 0


def test_figure_6_10_h264_50pct(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-10", config),
        kwargs=dict(workload="h264", routers=ROUTERS, runner=bench_runner()),
        rounds=1, iterations=1,
    )
    emit("Figure 6-10(b) H.264, 50% variation", render_figure("6-10", results))
    saturation = results.reduce("throughput", max, "display_name")
    # The paper's point here is only that minimal routing becomes competitive
    # when estimates are badly wrong — BSOR need not win, but it must still
    # deliver a functional network (throughput within 2x of the best).
    assert saturation["BSOR-Dijkstra"] >= 0.5 * max(saturation.values())
