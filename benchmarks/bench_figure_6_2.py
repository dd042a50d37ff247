"""Benchmark: regenerate Figure 6-2 (bit-complement throughput & latency).

Paper claims: XY-ordered, YX-ordered and BSOR-MILP share the same data points
(the pattern's symmetry gives them the same MCL of 100 MB/s), while ROMM and
Valiant saturate earlier and exhibit instability beyond saturation.
"""

from bench_utils import bench_config, emit, is_full_scale

from repro.experiments import render_figure, run_figure


def test_figure_6_2_bit_complement(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-2", config), rounds=1, iterations=1,
    )
    emit("Figure 6-2 (bit-complement)", render_figure("6-2", results))

    saturation = results.reduce("throughput", max, "display_name")
    route_mcl = results.reduce("max_channel_load", max, "display_name")
    # BSOR performs comparably to DOR (within a modest band) ...
    assert saturation["BSOR-MILP"] >= 0.75 * saturation["XY"]
    if is_full_scale(config):
        # Same-MCL claim: BSOR cannot beat DOR here, it can only match it.
        assert route_mcl["BSOR-MILP"] == route_mcl["XY"]
        # ... and the randomized algorithms do not exceed the best of DOR/BSOR
        # by any meaningful margin (they have strictly higher MCLs).
        best_static = max(saturation["XY"], saturation["YX"],
                          saturation["BSOR-MILP"])
        assert saturation["Valiant"] <= best_static * 1.1
