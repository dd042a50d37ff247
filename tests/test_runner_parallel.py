"""Tests for the parallel experiment engine.

Covers the satellite requirement that a seeded sweep produces identical
``SweepCurve`` values through the runner with 1 worker and with N workers,
plus the runner's equivalence with the serial driver and worker-count
resolution.
"""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.faults import plan_on
from repro.routing import ROMMRouting, XYRouting
from repro.runner import ExperimentRunner, SweepSpec, resolve_workers
from repro.simulator import SimulationConfig, sweep_injection_rates
from repro.simulator.simulation import phase_boundaries_for


@pytest.fixture
def sim_config() -> SimulationConfig:
    return SimulationConfig(num_vcs=2, buffer_depth=4, packet_size_flits=4,
                            warmup_cycles=50, measurement_cycles=200)


@pytest.fixture
def xy_routes(mesh4, transpose4):
    return XYRouting().compute_routes(mesh4, transpose4)


RATES = [0.3, 0.9, 2.0]


def curve_values(result):
    return (result.curve.offered_rates, result.curve.throughputs,
            result.curve.latencies,
            [point.delivery_ratio for point in result.curve.points])


class TestParallelSerialEquivalence:
    def test_one_vs_many_workers_identical(self, mesh4, xy_routes, sim_config):
        serial = ExperimentRunner(workers=1).sweep(
            mesh4, xy_routes, sim_config, RATES, workload="transpose")
        parallel = ExperimentRunner(workers=3).sweep(
            mesh4, xy_routes, sim_config, RATES, workload="transpose")
        assert curve_values(serial) == curve_values(parallel)
        assert serial.curve.algorithm == parallel.curve.algorithm
        assert serial.curve.workload == parallel.curve.workload

    def test_runner_matches_serial_driver(self, mesh4, xy_routes, sim_config):
        baseline = sweep_injection_rates(
            mesh4, xy_routes, sim_config, RATES, workload="transpose")
        runner = ExperimentRunner(workers=2).sweep(
            mesh4, xy_routes, sim_config, RATES, workload="transpose")
        assert curve_values(baseline) == curve_values(runner)
        assert [stats.packets_delivered for stats in baseline.statistics] == \
            [stats.packets_delivered for stats in runner.statistics]

    def test_two_phase_routes_cross_process(self, mesh4, transpose4, sim_config):
        """Phase-partitioned (ROMM) sweeps survive pickling to workers."""
        def sweep(workers):
            plan = plan_on(ROMMRouting(seed=1), mesh4, transpose4)
            return ExperimentRunner(workers=workers).sweep(
                mesh4, plan.route_set, sim_config, [0.5, 2.0],
                phase_boundaries=plan.phase_boundaries)

        assert curve_values(sweep(1)) == curve_values(sweep(2))

    def test_compare_algorithms_matches_serial(self, mesh4, transpose4,
                                               sim_config):
        runner = ExperimentRunner(workers=2)
        plans = {algorithm.name: plan_on(algorithm, mesh4, transpose4)
                 for algorithm in (XYRouting(), ROMMRouting(seed=1))}
        results = runner.sweep_many({
            name: SweepSpec(mesh4, plan.route_set, sim_config, [0.5, 1.5],
                            workload="transpose",
                            phase_boundaries=plan.phase_boundaries)
            for name, plan in plans.items()
        })
        assert set(results) == {"XY", "ROMM"}
        for name, result in results.items():
            assert len(result.curve.points) == 2
            assert result.route_set.algorithm == name


class TestSweepMany:
    def test_batched_sweeps_keep_their_labels(self, mesh4, transpose4,
                                              sim_config):
        xy = XYRouting().compute_routes(mesh4, transpose4)
        romm_algorithm = ROMMRouting(seed=1)
        romm = romm_algorithm.compute_routes(mesh4, transpose4)
        runner = ExperimentRunner(workers=1)
        results = runner.sweep_many({
            "xy@2": SweepSpec(mesh4, xy, sim_config, [0.5], "transpose"),
            "romm@2": SweepSpec(
                mesh4, romm, sim_config, [0.5], "transpose",
                phase_boundaries=phase_boundaries_for(romm_algorithm, romm)),
        })
        assert set(results) == {"xy@2", "romm@2"}
        assert results["xy@2"].curve.algorithm == "XY"
        assert results["romm@2"].curve.algorithm == "ROMM"
        assert runner.last_report.points_total == 2

    def test_empty_rates_rejected(self, mesh4, xy_routes, sim_config):
        runner = ExperimentRunner(workers=1)
        with pytest.raises(SimulationError):
            runner.sweep(mesh4, xy_routes, sim_config, [])

    def test_incomplete_route_set_rejected(self, mesh4, sim_config):
        from repro.routing import RouteSet
        from repro.traffic import FlowSet

        flows = FlowSet.from_tuples([(0, 2, 1.0), (3, 5, 1.0)])
        routes = RouteSet(mesh4, flows)
        routes.add_node_path(flows[0], [0, 1, 2])
        runner = ExperimentRunner(workers=1)
        with pytest.raises(SimulationError):
            runner.sweep(mesh4, routes, sim_config, [0.5])


class TestRunnerPlumbing:
    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(4) == 4
        assert resolve_workers(-2) == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(0) == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) >= 1

    def test_report_accumulates(self, mesh4, xy_routes, sim_config):
        runner = ExperimentRunner(workers=1)
        runner.sweep(mesh4, xy_routes, sim_config, [0.5])
        runner.sweep(mesh4, xy_routes, sim_config, [0.9])
        assert runner.total_report.points_total == 2
        assert "2 points" in runner.total_report.describe()
        assert "ExperimentRunner" in runner.describe()
