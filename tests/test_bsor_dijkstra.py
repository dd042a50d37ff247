"""Tests for the Dijkstra-based BSOR route selector."""

import pytest

from repro.cdg import TurnModel, turn_model_cdg
from repro.exceptions import RoutingError, UnroutableFlowError
from repro.flowgraph import FlowGraph
from repro.routing import DijkstraSelector, ResidualCapacityWeight, check_deadlock_freedom
from repro.topology import Mesh2D
from repro.traffic import FlowSet, transpose


def make_flow_graph(mesh, flows, model=TurnModel.WEST_FIRST, num_vcs=1):
    cdg = turn_model_cdg(mesh, model, num_vcs=num_vcs)
    graph = FlowGraph(cdg)
    graph.add_flow_terminals(flows)
    return graph


class TestBasicSelection:
    def test_all_flows_routed(self, mesh4, transpose4):
        graph = make_flow_graph(mesh4, transpose4)
        routes = DijkstraSelector(graph).select_routes(transpose4)
        assert routes.is_complete()
        assert routes.algorithm == "BSOR-Dijkstra"

    def test_routes_conform_to_cdg(self, mesh4, transpose4):
        graph = make_flow_graph(mesh4, transpose4)
        routes = DijkstraSelector(graph).select_routes(transpose4)
        for route in routes:
            assert graph.cdg.path_conforms(list(route.resources))

    def test_routes_are_deadlock_free(self, mesh4, transpose4):
        graph = make_flow_graph(mesh4, transpose4)
        routes = DijkstraSelector(graph).select_routes(transpose4)
        assert check_deadlock_freedom(routes).deadlock_free

    def test_single_flow_gets_minimal_route(self, mesh3):
        """With no contention the cheapest path is also the shortest."""
        flows = FlowSet.from_tuples([(0, 8, 1.0)])
        graph = make_flow_graph(mesh3, flows)
        routes = DijkstraSelector(graph).select_routes(flows)
        assert routes.routes[0].hop_count == 4

    def test_load_balancing_beats_dor_on_contended_flows(self, mesh3):
        """Three flows with the same destination column spread across links
        instead of piling onto one, unlike XY routing."""
        from repro.routing import XYRouting

        flows = FlowSet.from_tuples([(0, 8, 10.0), (1, 8, 10.0), (2, 8, 10.0)])
        graph = make_flow_graph(mesh3, flows)
        bsor = DijkstraSelector(graph).select_routes(flows)
        xy = XYRouting().compute_routes(mesh3, flows)
        assert bsor.max_channel_load() <= xy.max_channel_load()

    def test_respects_flow_ordering_options(self, mesh4, transpose4):
        graph = make_flow_graph(mesh4, transpose4)
        for order in ("given", "demand-descending", "demand-ascending"):
            selector = DijkstraSelector(graph, order=order)
            assert selector.select_routes(transpose4).is_complete()

    def test_invalid_order_rejected(self, mesh4, transpose4):
        graph = make_flow_graph(mesh4, transpose4)
        with pytest.raises(RoutingError):
            DijkstraSelector(graph, order="by-luck")

    def test_invalid_refine_passes(self, mesh4, transpose4):
        graph = make_flow_graph(mesh4, transpose4)
        with pytest.raises(RoutingError):
            DijkstraSelector(graph, refine_passes=-1)


class TestRefinement:
    def test_refinement_never_hurts_mcl(self, mesh8):
        flows = transpose(64, demand=25.0)
        graph = make_flow_graph(mesh8, flows)
        weight_a = ResidualCapacityWeight(flows)
        base = DijkstraSelector(graph, weight=weight_a,
                                refine_passes=0).select_routes(flows)
        graph_b = make_flow_graph(mesh8, flows)
        weight_b = ResidualCapacityWeight(flows)
        refined = DijkstraSelector(graph_b, weight=weight_b,
                                   refine_passes=2).select_routes(flows)
        assert refined.max_channel_load() <= base.max_channel_load() + 1e-9

    def test_refined_routes_remain_deadlock_free(self, mesh4, transpose4):
        graph = make_flow_graph(mesh4, transpose4)
        routes = DijkstraSelector(graph, refine_passes=3).select_routes(transpose4)
        assert check_deadlock_freedom(routes).deadlock_free


class TestMultiVC:
    def test_static_vc_allocation(self, mesh4, transpose4):
        graph = make_flow_graph(mesh4, transpose4, num_vcs=2)
        weight = ResidualCapacityWeight(transpose4, vc_flow_penalty=1e-3)
        selector = DijkstraSelector(graph, weight=weight)
        routes = selector.select_routes(transpose4)
        assert routes.is_statically_vc_allocated()

    def test_flows_spread_across_vcs(self, mesh4, transpose4):
        graph = make_flow_graph(mesh4, transpose4, num_vcs=2)
        weight = ResidualCapacityWeight(transpose4, vc_flow_penalty=1e-3)
        selector = DijkstraSelector(graph, weight=weight)
        routes = selector.select_routes(transpose4)
        used_vcs = {vc for route in routes for vc in route.vc_indices}
        assert used_vcs == {0, 1}


class TestUnroutable:
    def test_unroutable_flow_raises(self, mesh3):
        """Deleting every dependence into the sink's channels makes a flow
        unroutable and the selector must say so, not loop."""
        cdg = turn_model_cdg(mesh3, TurnModel.WEST_FIRST)
        # remove every edge into the two channels entering node 0
        doomed = [resource for resource in cdg.vertices
                  if resource.dst == 0]
        for target in doomed:
            for upstream in list(cdg.predecessors(target)):
                cdg.remove_edge(upstream, target)
        flows = FlowSet.from_tuples([(8, 0, 1.0)])
        graph = FlowGraph(cdg)
        graph.add_flow_terminals(flows)
        with pytest.raises(UnroutableFlowError):
            DijkstraSelector(graph).select_routes(flows)
