"""Benchmark: regenerate Figure 6-3 (shuffle throughput & latency sweep).

Paper claims: both BSOR variants reach the lowest MCL (75 vs 100 for DOR and
ROMM, 175 for Valiant) and the highest saturation throughput; BSOR-Dijkstra
edges out BSOR-MILP at high injection rates despite the equal MCL.
"""

from bench_utils import (bench_config, bench_runner, emit,
                         improvement_summary, is_full_scale)

from repro.experiments import render_figure, run_figure


def test_figure_6_3_shuffle(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-3", config),
        kwargs=dict(runner=bench_runner()), rounds=1, iterations=1,
    )
    emit("Figure 6-3 (shuffle)", render_figure("6-3", results))

    saturation = results.reduce("throughput", max, "display_name")
    emit("Saturation summary",
         improvement_summary(saturation, "BSOR-Dijkstra"))
    route_mcl = results.reduce("max_channel_load", max, "display_name")
    if is_full_scale(config):
        # BSOR finds a lower-or-equal MCL than every baseline on shuffle.
        baseline_mcl = min(route_mcl[name]
                           for name in ("XY", "YX", "ROMM", "Valiant"))
        assert route_mcl["BSOR-MILP"] <= baseline_mcl
        assert route_mcl["BSOR-Dijkstra"] <= baseline_mcl
        assert saturation["BSOR-Dijkstra"] >= 0.95 * max(
            saturation[name] for name in ("XY", "YX", "ROMM", "Valiant")
        )
    else:
        assert saturation["BSOR-Dijkstra"] > 0
