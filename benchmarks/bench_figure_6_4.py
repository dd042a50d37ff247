"""Benchmark: regenerate Figure 6-4 (H.264 decoder throughput & latency).

Paper claims: the H.264 decoder is throughput- and latency-sensitive; BSOR's
MCL minimisation lowers congestion and average latency at moderate loads
(DOR only catches up at very high injection rates thanks to more isolated
hot spots).

Note on absolute numbers: the paper's DOR MCLs (254-365 MB/s) depend on the
unpublished placement of the nine decoder modules on the 8x8 mesh; with this
library's compact block placement DOR is closer to optimal, so the *gap*
is smaller while the ordering (BSOR <= every baseline) is preserved.
"""

from bench_utils import bench_config, bench_runner, emit, is_full_scale

from repro.experiments import render_figure, run_figure


def test_figure_6_4_h264(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-4", config),
        kwargs=dict(runner=bench_runner()), rounds=1, iterations=1,
    )
    emit("Figure 6-4 (H.264 decoder)", render_figure("6-4", results))

    saturation = results.reduce("throughput", max, "display_name")
    route_mcl = results.reduce("max_channel_load", max, "display_name")
    assert saturation["BSOR-MILP"] > 0
    if is_full_scale(config):
        # BSOR-MILP reaches the provable optimum: the MCL equals the single
        # heaviest flow of the decoder (120.4 MB/s reconstructed-frame
        # traffic).
        assert route_mcl["BSOR-MILP"] <= route_mcl["XY"] + 1e-9
        assert abs(route_mcl["BSOR-MILP"] - 120.4) < 1.0
        assert saturation["BSOR-MILP"] >= 0.85 * max(
            saturation[name] for name in ("XY", "YX", "ROMM", "Valiant")
        )
