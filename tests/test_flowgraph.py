"""Tests for flow-graph derivation from acyclic CDGs."""

import pytest

from repro.cdg import ChannelDependenceGraph, TurnModel, turn_model_cdg
from repro.exceptions import CDGError, RoutingError
from repro.flowgraph import FlowGraph, Terminal, route_node_path
from repro.topology import Mesh2D, VirtualChannel
from repro.traffic import FlowSet


class TestTerminal:
    def test_kinds(self):
        assert Terminal(0, "source").kind == "source"
        with pytest.raises(RoutingError):
            Terminal(0, "middle")

    def test_str(self):
        assert str(Terminal(3, "source")) == "s(3)"
        assert str(Terminal(3, "sink")) == "t(3)"


class TestFlowGraphConstruction:
    def test_rejects_cyclic_cdg(self, mesh3):
        cyclic = ChannelDependenceGraph.from_topology(mesh3)
        with pytest.raises(CDGError):
            FlowGraph(cyclic)

    def test_vertices_without_terminals(self, west_first_cdg):
        graph = FlowGraph(west_first_cdg)
        assert graph.num_vertices == west_first_cdg.num_vertices
        assert graph.resource_vertices() == west_first_cdg.vertices

    def test_source_terminal_edges(self, west_first_cdg, mesh3):
        graph = FlowGraph(west_first_cdg)
        terminal = graph.add_source_terminal(0)
        successors = list(graph.graph.successors(terminal))
        assert set(successors) == set(mesh3.out_channels(0))

    def test_sink_terminal_edges(self, west_first_cdg, mesh3):
        graph = FlowGraph(west_first_cdg)
        terminal = graph.add_sink_terminal(8)
        predecessors = list(graph.graph.predecessors(terminal))
        assert set(predecessors) == set(mesh3.in_channels(8))

    def test_terminals_are_cached(self, west_first_cdg):
        graph = FlowGraph(west_first_cdg)
        assert graph.add_source_terminal(0) is graph.add_source_terminal(0)

    def test_missing_terminal_lookup(self, west_first_cdg):
        graph = FlowGraph(west_first_cdg)
        with pytest.raises(RoutingError):
            graph.source_terminal(0)

    def test_add_flow_terminals(self, flow_graph3, small_flows):
        for flow in small_flows:
            assert flow_graph3.source_terminal(flow.source)
            assert flow_graph3.sink_terminal(flow.destination)

    def test_multi_vc_terminals_attach_to_all_vcs(self, mesh3):
        cdg = turn_model_cdg(mesh3, TurnModel.WEST_FIRST, num_vcs=2)
        graph = FlowGraph(cdg)
        terminal = graph.add_source_terminal(0)
        successors = list(graph.graph.successors(terminal))
        assert len(successors) == 2 * len(mesh3.out_channels(0))


class TestPathQueries:
    def test_path_exists_for_all_pairs_under_turn_model(self, mesh3, west_first_cdg):
        graph = FlowGraph(west_first_cdg)
        for src in mesh3.nodes:
            for dst in mesh3.nodes:
                if src != dst:
                    assert graph.path_exists(src, dst)

    def test_shortest_hop_path_is_minimal(self, mesh3, west_first_cdg):
        graph = FlowGraph(west_first_cdg)
        route = graph.shortest_hop_path(0, 8)
        assert len(route) == mesh3.manhattan_distance(0, 8)

    def test_shortest_hop_path_conforms_to_cdg(self, west_first_cdg):
        graph = FlowGraph(west_first_cdg)
        route = graph.shortest_hop_path(2, 6)
        assert west_first_cdg.path_conforms(route)

    def test_strip_terminals(self, west_first_cdg, mesh3):
        graph = FlowGraph(west_first_cdg)
        source = graph.add_source_terminal(0)
        sink = graph.add_sink_terminal(2)
        path = [source, mesh3.channel(0, 1), mesh3.channel(1, 2), sink]
        assert FlowGraph.strip_terminals(path) == \
            [mesh3.channel(0, 1), mesh3.channel(1, 2)]

    def test_all_reachable(self, flow_graph3, small_flows):
        assert flow_graph3.all_reachable(small_flows)

    def test_minimal_hop_count(self, west_first_cdg):
        graph = FlowGraph(west_first_cdg)
        assert graph.minimal_hop_count(0, 8) == 4

    def test_describe(self, flow_graph3):
        text = flow_graph3.describe()
        assert "sources" in text and "sinks" in text


class TestRouteNodePath:
    def test_empty(self):
        assert route_node_path([]) == []

    def test_physical_channels(self, mesh3):
        path = route_node_path([mesh3.channel(0, 1), mesh3.channel(1, 2)])
        assert path == [0, 1, 2]

    def test_virtual_channels(self, mesh3):
        path = route_node_path([
            VirtualChannel(mesh3.channel(0, 1), 0),
            VirtualChannel(mesh3.channel(1, 2), 1),
        ])
        assert path == [0, 1, 2]

    def test_non_consecutive_rejected(self, mesh3):
        with pytest.raises(RoutingError):
            route_node_path([mesh3.channel(0, 1), mesh3.channel(2, 5)])
