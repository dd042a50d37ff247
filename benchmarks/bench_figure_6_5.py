"""Benchmark: regenerate Figure 6-5 (performance-modeling throughput & latency).

Paper claim: "BSORMILP produces routes that achieve a network throughput
approximately 33% greater than other routing algorithms, at a comparable
average packet latency."  The corresponding MCLs (Table 6.3) are 62.73 for
BSOR-MILP versus 95.04-146.38 for the baselines.
"""

from bench_utils import bench_config, emit, improvement_summary, is_full_scale

from repro.experiments import render_figure, run_figure


def test_figure_6_5_performance_modeling(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-5", config), rounds=1, iterations=1,
    )
    emit("Figure 6-5 (performance modeling)", render_figure("6-5", results))

    saturation = results.reduce("throughput", max, "display_name")
    emit("Saturation summary",
         improvement_summary(saturation, "BSOR-MILP"))
    route_mcl = results.reduce("max_channel_load", max, "display_name")
    assert saturation["BSOR-MILP"] > 0
    if is_full_scale(config):
        # MCL shape from Table 6.3: BSOR-MILP = 62.73 (the heaviest flow),
        # i.e. provably optimal, and strictly below every baseline.
        assert abs(route_mcl["BSOR-MILP"] - 62.73) < 0.1
        for name in ("XY", "YX", "ROMM", "Valiant"):
            assert route_mcl["BSOR-MILP"] < route_mcl[name]
        assert saturation["BSOR-MILP"] >= 0.85 * max(
            saturation[name] for name in ("XY", "YX", "ROMM", "Valiant")
        )
