"""Benchmark: regenerate Figure 6-6 (802.11a/g transmitter throughput & latency).

Paper claims: the same trends as the other applications hold; at low loads
latency dominates and BSOR balances path length against bandwidth need;
Valiant pays for its loss of locality (Table 6.3 MCL 22.36 vs 7.34 for
BSOR-MILP, in MB/s; this library's flow table is in MBit/s, so the same
optimum reads 58.72).
"""

from bench_utils import bench_config, bench_runner, emit, is_full_scale

from repro.experiments import render_figure, run_figure


def test_figure_6_6_transmitter(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-6", config),
        kwargs=dict(runner=bench_runner()), rounds=1, iterations=1,
    )
    emit("Figure 6-6 (802.11a/g transmitter)", render_figure("6-6", results))

    saturation = results.reduce("throughput", max, "display_name")
    route_mcl = results.reduce("max_channel_load", max, "display_name")
    assert saturation["BSOR-MILP"] > 0
    if is_full_scale(config):
        # Table 6.3 shape: BSOR-MILP's MCL equals the heaviest flow (58.72
        # MBit/s = the paper's 7.34 MB/s) and Valiant has the worst MCL.
        assert abs(route_mcl["BSOR-MILP"] - 58.72) < 0.1
        assert route_mcl["Valiant"] == max(route_mcl.values())
        assert saturation["BSOR-MILP"] >= 0.85 * max(
            saturation[name] for name in ("XY", "YX", "ROMM", "Valiant")
        )
