"""End-to-end integration tests tying all the layers together.

Each test follows the full pipeline the paper describes: workload -> acyclic
CDG -> flow graph -> route selection -> deadlock verification -> router
tables -> cycle-accurate simulation -> statistics, and asserts the
qualitative result the evaluation chapter reports for that configuration.
"""

import pytest

from repro.experiments import ExperimentConfig
from repro.metrics import load_report
from repro.planning import parse_topology, pattern_flow_set
from repro.routing import (
    BSORRouting,
    NodeRoutingTable,
    ROMMRouting,
    SourceRoutingTable,
    ValiantRouting,
    XYRouting,
    YXRouting,
    check_deadlock_freedom,
)
from repro.routing.bsor import full_strategy_set
from repro.simulator import SimulationConfig, simulate_route_set, sweep_algorithm
from repro.topology import Mesh2D
from repro.traffic import (
    h264_decoder,
    map_onto_mesh,
    performance_modeling,
    transpose,
    wlan_transmitter,
)


QUICK = ExperimentConfig.quick()
SIM = SimulationConfig(num_vcs=2, buffer_depth=4, packet_size_flits=4,
                       warmup_cycles=150, measurement_cycles=1200)


class TestFullPipelineOnApplications:
    @pytest.mark.parametrize("factory", [h264_decoder, performance_modeling,
                                         wlan_transmitter])
    def test_application_routes_compile_and_simulate(self, factory):
        mesh = Mesh2D(4)
        flows = map_onto_mesh(factory(), mesh, strategy="block")
        bsor = BSORRouting(selector="dijkstra")
        routes = bsor.compute_routes(mesh, flows)

        # deadlock freedom, router-table compilation, simulation
        assert check_deadlock_freedom(routes).deadlock_free
        NodeRoutingTable.from_route_set(routes)
        SourceRoutingTable.from_route_set(routes)
        stats = simulate_route_set(mesh, routes, SIM, offered_rate=0.5)
        assert stats.packets_delivered > 0

    def test_bsor_mcl_never_worse_than_baselines_on_applications(self):
        mesh = Mesh2D(4)
        for factory in (h264_decoder, performance_modeling, wlan_transmitter):
            flows = map_onto_mesh(factory(), mesh, strategy="block")
            bsor_mcl = BSORRouting(selector="milp", milp_time_limit=20) \
                .compute_routes(mesh, flows).max_channel_load()
            for baseline in (XYRouting(), YXRouting(), ROMMRouting(seed=0),
                             ValiantRouting(seed=0)):
                baseline_mcl = baseline.compute_routes(mesh, flows) \
                    .max_channel_load()
                assert bsor_mcl <= baseline_mcl + 1e-9

    @pytest.mark.slow
    def test_perf_modeling_matches_paper_optimum_on_8x8(self):
        """Table 6.1/6.3: the best BSOR-MILP MCL for performance modeling is
        62.73 MB/s — exactly the single heaviest flow, i.e. provably optimal."""
        mesh = Mesh2D(8)
        flows = map_onto_mesh(performance_modeling(), mesh, strategy="block")
        bsor = BSORRouting(selector="milp", milp_time_limit=30)
        routes = bsor.compute_routes(mesh, flows)
        assert routes.max_channel_load() == pytest.approx(62.73)

    @pytest.mark.slow
    def test_transmitter_matches_paper_optimum_on_8x8(self):
        """Table 6.3 reports 7.34 MB/s for BSOR-MILP on the transmitter;
        our flow table is in MBit/s, so the same optimum is 58.72."""
        mesh = Mesh2D(8)
        flows = map_onto_mesh(wlan_transmitter(), mesh, strategy="block")
        routes = BSORRouting(selector="milp", milp_time_limit=30) \
            .compute_routes(mesh, flows)
        assert routes.max_channel_load() == pytest.approx(58.72)


class TestPaperHeadlineThroughput:
    def test_transpose_bsor_beats_xy_in_simulation(self):
        """Figure 6-1's qualitative claim at reduced scale: BSOR's saturation
        throughput on transpose exceeds XY's by a clear margin."""
        mesh = Mesh2D(4)
        flows = transpose(16, demand=25.0)
        xy = sweep_algorithm(XYRouting(), mesh, flows, SIM, [6.0])
        bsor = sweep_algorithm(BSORRouting(selector="dijkstra"), mesh, flows,
                               SIM, [6.0])
        assert bsor.saturation_throughput > xy.saturation_throughput * 1.05

    @pytest.mark.slow
    def test_full_cdg_exploration_reaches_75_on_8x8(self):
        """Tables 6.1/6.3: min MCL 75 MB/s for 8x8 transpose at 25 MB/s."""
        mesh = Mesh2D(8)
        flows = transpose(64, demand=25.0)
        bsor = BSORRouting(selector="milp", milp_time_limit=30,
                           strategies=full_strategy_set(mesh))
        routes = bsor.compute_routes(mesh, flows)
        assert routes.max_channel_load() == 75.0
        report = load_report(routes)
        assert report.mcl == 75.0
        assert check_deadlock_freedom(routes).deadlock_free


class TestExperimentWorkloadsSmoke:
    @pytest.mark.parametrize("workload", ["transpose", "bit-complement",
                                          "shuffle", "h264", "perf-modeling",
                                          "transmitter"])
    def test_every_workload_routes_and_simulates_quickly(self, workload):
        mesh = parse_topology(f"mesh{QUICK.mesh_size}x{QUICK.mesh_size}")
        flows = pattern_flow_set(workload, mesh, QUICK)
        routes = BSORRouting(selector="dijkstra").compute_routes(mesh, flows)
        stats = simulate_route_set(mesh, routes, QUICK.simulation, 0.5)
        assert stats.packets_delivered > 0
        assert stats.average_latency > 0
