"""Benchmark: adaptive saturation search versus the dense rate sweep.

The comparison engine's acceptance target: the bracket-plus-bisection
finder must locate the saturation rate of a (router, pattern) cell while
invoking the simulator at **>= 3x fewer rate points** than the dense sweep
it replaces, and must agree with the dense sweep's saturation rate to
within one sweep step.
"""

from bench_utils import bench_config, bench_workload, emit

from repro.compare import SaturationCriteria, dense_saturation, find_saturation
from repro.routing import create_router
from repro.runner.engine import runner_for


def test_adaptive_saturation_vs_dense_sweep(benchmark):
    config = bench_config()
    mesh, flows = bench_workload("transpose", config)
    routes = create_router("dor").compute_routes(mesh, flows)
    runner = runner_for(config)
    criteria = SaturationCriteria(min_rate=0.25, max_rate=8.0,
                                  resolution=0.25)

    invocations = []

    def evaluate(rate):
        invocations.append(rate)
        stats = runner.simulate(mesh, routes, config.simulation, rate)
        return stats.throughput, stats.average_latency, stats.delivery_ratio

    adaptive = benchmark.pedantic(
        lambda: find_saturation(evaluate, criteria), rounds=1, iterations=1,
    )
    adaptive_points = len(invocations)
    invocations.clear()
    dense = dense_saturation(evaluate, criteria)
    dense_points = len(invocations)

    emit(
        "Adaptive saturation search (XY on transpose)",
        "\n".join([
            f"adaptive: {adaptive.describe()}",
            f"dense:    {dense.describe()}",
            f"rate points: adaptive {adaptive_points} vs dense "
            f"{dense_points} ({dense_points / adaptive_points:.1f}x fewer)",
            f"runner: {runner.describe()}",
        ]),
    )

    # accuracy: both must saturate, and agree to within one sweep step
    assert adaptive.saturated_within_range
    assert dense.saturated_within_range
    assert abs(adaptive.saturation_rate - dense.saturation_rate) <= \
        criteria.resolution + 1e-9

    # efficiency: the acceptance target — >= 3x fewer simulator invocations
    assert adaptive_points * 3 <= dense_points, (
        f"adaptive search used {adaptive_points} rate points; dense sweep "
        f"used {dense_points} (< 3x reduction)"
    )
