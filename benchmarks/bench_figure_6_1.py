"""Benchmark: regenerate Figure 6-1 (transpose throughput & latency sweep).

Paper claim: "Our BSOR scheme, for the transpose traffic pattern, produces
routes that achieve a network throughput of approximately 70% greater than
other routing algorithms, at a comparable average packet latency."
"""

from bench_utils import bench_config, emit, improvement_summary, is_full_scale

from repro.experiments import render_figure, run_figure


def test_figure_6_1_transpose(benchmark):
    config = bench_config()
    results = benchmark.pedantic(
        run_figure, args=("6-1", config), rounds=1, iterations=1,
    )
    emit("Figure 6-1 (transpose)", render_figure("6-1", results))

    saturation = results.reduce("throughput", max, "display_name")
    emit("Saturation summary",
         improvement_summary(saturation, "BSOR-Dijkstra"))
    baselines = [saturation[name] for name in ("XY", "YX", "ROMM", "Valiant")]
    if is_full_scale(config):
        # BSOR must clearly outperform every baseline on transpose.
        assert saturation["BSOR-Dijkstra"] > max(baselines)
        assert saturation["BSOR-MILP"] > max(baselines)
        # The paper reports ~70%; allow a generous band at reduced simulation
        # scale.
        gain = saturation["BSOR-Dijkstra"] / max(baselines) - 1.0
        assert gain > 0.25, f"expected a large transpose gain, got {gain:.0%}"
    else:
        assert saturation["BSOR-Dijkstra"] >= 0.8 * max(baselines)
