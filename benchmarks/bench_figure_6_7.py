"""Benchmark: regenerate Figure 6-7 (effect of the number of virtual channels).

Paper claims: "increasing the number of virtual channels from two to four
improves performance, in terms of throughput, by almost 40% ... increasing
the number of virtual channels from four to eight does not have the same
impact"; BSOR stays ahead of the other schemes at every VC count.  The paper
shows transpose and the H.264 decoder; other workloads behave the same.
"""

from bench_utils import bench_config, bench_runner, emit, is_full_scale

from repro.experiments import render_figure, run_figure

ROUTERS = ["dor", "bsor-dijkstra"]


def test_figure_6_7_transpose_vc_sweep(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-7", config),
        kwargs=dict(vcs=(1, 2, 4, 8), routers=ROUTERS, runner=bench_runner()),
        rounds=1, iterations=1,
    )
    emit("Figure 6-7 (transpose, VC sweep)", render_figure("6-7", results))

    # (algorithm, VC count) -> saturation throughput
    saturation = results.reduce("throughput", max, "display_name", "vcs")

    def improvement(algorithm, from_vcs, to_vcs):
        base = saturation[algorithm, from_vcs]
        return (saturation[algorithm, to_vcs] - base) / base

    for algorithm in ("XY", "BSOR-Dijkstra"):
        # more VCs never hurt throughput (head-of-line blocking only shrinks)
        assert saturation[algorithm, 2] >= saturation[algorithm, 1] * 0.95
        assert saturation[algorithm, 4] >= saturation[algorithm, 2] * 0.95
    if is_full_scale(config):
        for algorithm in ("XY", "BSOR-Dijkstra"):
            # diminishing returns: the 4->8 gain is below the 2->4 gain
            gain_2_to_4 = improvement(algorithm, 2, 4)
            gain_4_to_8 = improvement(algorithm, 4, 8)
            assert gain_4_to_8 <= gain_2_to_4 + 0.10
        # BSOR stays ahead of XY at every VC count on transpose.
        for vcs in (1, 2, 4, 8):
            assert saturation["BSOR-Dijkstra", vcs] >= saturation["XY", vcs]


def test_figure_6_7_h264_vc_sweep(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-7", config),
        kwargs=dict(workload="h264", vcs=(2, 4), routers=ROUTERS,
                    runner=bench_runner()),
        rounds=1, iterations=1,
    )
    emit("Figure 6-7 (H.264, VC sweep)", render_figure("6-7", results))
    saturation = results.reduce("throughput", max, "display_name", "vcs")
    for algorithm in ("XY", "BSOR-Dijkstra"):
        assert saturation[algorithm, 4] >= saturation[algorithm, 2] * 0.95
