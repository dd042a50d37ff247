"""Tests for the MILP route selector."""

import pytest

from repro.cdg import TurnModel, ad_hoc_cdg, turn_model_cdg
from repro.exceptions import SolverError
from repro.flowgraph import ChannelCapacities, FlowGraph
from repro.routing import MILPSelector, XYRouting, check_deadlock_freedom
from repro.routing.bsor import milp_route_set
from repro.topology import Mesh2D
from repro.traffic import FlowSet, transpose


def make_flow_graph(mesh, flows, model=TurnModel.WEST_FIRST, num_vcs=1,
                    capacities=None):
    cdg = turn_model_cdg(mesh, model, num_vcs=num_vcs)
    graph = FlowGraph(cdg, capacities=capacities)
    graph.add_flow_terminals(flows)
    return graph


class TestBasicSolving:
    def test_all_flows_routed(self, mesh3, small_flows):
        graph = make_flow_graph(mesh3, small_flows)
        routes = MILPSelector(graph).select_routes(small_flows)
        assert routes.is_complete()
        assert routes.algorithm == "BSOR-MILP"

    def test_solution_diagnostics_recorded(self, mesh3, small_flows):
        graph = make_flow_graph(mesh3, small_flows)
        selector = MILPSelector(graph)
        routes = selector.select_routes(small_flows)
        solution = selector.last_solution
        assert solution is not None
        assert solution.optimal
        assert solution.mcl == routes.max_channel_load()
        assert solution.num_variables > 0
        assert solution.num_constraints > 0
        assert solution.wall_seconds > 0
        assert not solution.time_limit_hit

    def test_time_limit_is_a_diagnostic_not_a_log_line(self, mesh4,
                                                       transpose4):
        graph = make_flow_graph(mesh4, transpose4)
        selector = MILPSelector(graph, time_limit=1e-9)
        with pytest.raises(SolverError, match="Time limit"):
            selector.select_routes(transpose4)
        solution = selector.last_solution
        assert solution.time_limit_hit and not solution.optimal
        assert solution.status == 1 and solution.mcl is None
        assert solution.wall_seconds > 0

    def test_routes_conform_and_are_deadlock_free(self, mesh4, transpose4):
        graph = make_flow_graph(mesh4, transpose4)
        routes = MILPSelector(graph, time_limit=30).select_routes(transpose4)
        for route in routes:
            assert graph.cdg.path_conforms(list(route.resources))
        assert check_deadlock_freedom(routes).deadlock_free

    def test_invalid_parameters(self, mesh3, small_flows):
        graph = make_flow_graph(mesh3, small_flows)
        with pytest.raises(SolverError):
            MILPSelector(graph, hop_slack=-1)
        with pytest.raises(SolverError):
            MILPSelector(graph, objective="min-everything")

    def test_empty_flow_set_rejected(self, mesh3):
        graph = make_flow_graph(mesh3, FlowSet.from_tuples([(0, 1, 1.0)]))
        with pytest.raises(SolverError):
            MILPSelector(graph).select_routes(FlowSet())


class TestOptimality:
    def test_milp_never_worse_than_dijkstra(self, mesh4, transpose4):
        from repro.routing import DijkstraSelector

        milp_routes = milp_route_set(
            make_flow_graph(mesh4, transpose4), transpose4, time_limit=30
        )
        dijkstra_routes = DijkstraSelector(
            make_flow_graph(mesh4, transpose4)
        ).select_routes(transpose4)
        assert milp_routes.max_channel_load() <= \
            dijkstra_routes.max_channel_load() + 1e-9

    def test_milp_never_worse_than_xy_on_same_cdg_family(self, mesh4, transpose4):
        """BSOR-MILP explores strictly more routes than XY inside the XY
        CDG, so its MCL can only be lower or equal."""
        graph = make_flow_graph(mesh4, transpose4, model=TurnModel.XY)
        milp_routes = MILPSelector(graph, hop_slack=0).select_routes(transpose4)
        xy_routes = XYRouting().compute_routes(mesh4, transpose4)
        assert milp_routes.max_channel_load() <= xy_routes.max_channel_load()

    def test_contended_flows_are_spread_optimally(self, mesh3):
        """Three flows from the same column to the same corner can be spread
        so no two of them share a link (MCL = one flow's demand)."""
        flows = FlowSet.from_tuples([(0, 8, 10.0), (1, 8, 10.0), (2, 8, 10.0)])
        graph = make_flow_graph(mesh3, flows, model=TurnModel.WEST_FIRST)
        routes = MILPSelector(graph, hop_slack=2).select_routes(flows)
        assert routes.max_channel_load() <= 20.0
        assert routes.max_channel_load() < \
            XYRouting().compute_routes(mesh3, flows).max_channel_load()

    def test_hop_slack_zero_forces_minimal_routes(self, mesh4, transpose4):
        graph = make_flow_graph(mesh4, transpose4)
        routes = MILPSelector(graph, hop_slack=0).select_routes(transpose4)
        assert all(route.is_minimal(mesh4) for route in routes)

    def test_hop_slack_allows_non_minimal_routes(self, mesh3):
        flows = FlowSet.from_tuples([(0, 2, 10.0), (1, 2, 10.0)])
        graph = make_flow_graph(mesh3, flows)
        bounded = MILPSelector(graph, hop_slack=0).select_routes(flows)
        relaxed = MILPSelector(
            make_flow_graph(mesh3, flows), hop_slack=2
        ).select_routes(flows)
        assert relaxed.max_channel_load() <= bounded.max_channel_load()


class TestObjectives:
    def test_min_flow_count_objective(self, mesh3):
        flows = FlowSet.from_tuples([(0, 8, 1.0), (1, 8, 100.0), (2, 8, 1.0)])
        graph = make_flow_graph(mesh3, flows)
        routes = MILPSelector(graph, objective="min-flow-count",
                              hop_slack=2).select_routes(flows)
        assert routes.max_flows_per_channel() <= 2

    def test_min_total_load_objective_minimises_hops(self, mesh4, transpose4):
        graph = make_flow_graph(mesh4, transpose4)
        routes = MILPSelector(graph, objective="min-total-load",
                              hop_slack=2).select_routes(transpose4)
        assert all(route.is_minimal(mesh4) for route in routes)

    def test_capacity_constraints_respected(self, mesh3):
        flows = FlowSet.from_tuples([(0, 2, 6.0), (3, 5, 6.0)])
        capacities = ChannelCapacities(default=10.0)
        graph = make_flow_graph(mesh3, flows, capacities=capacities)
        selector = MILPSelector(graph, respect_capacities=True, hop_slack=2)
        routes = selector.select_routes(flows)
        for load in routes.channel_loads().values():
            assert load <= 10.0 + 1e-9


class TestMultiVCAndAdHoc:
    def test_static_vc_allocation(self, mesh3, small_flows):
        graph = make_flow_graph(mesh3, small_flows, num_vcs=2)
        routes = MILPSelector(graph).select_routes(small_flows)
        assert routes.is_statically_vc_allocated()
        assert check_deadlock_freedom(routes).deadlock_free

    def test_ad_hoc_cdg_solvable(self, mesh4, transpose4):
        cdg = ad_hoc_cdg(mesh4, seed=2)
        graph = FlowGraph(cdg)
        graph.add_flow_terminals(transpose4)
        routes = MILPSelector(graph, time_limit=30).select_routes(transpose4)
        assert routes.is_complete()
        assert check_deadlock_freedom(routes).deadlock_free
