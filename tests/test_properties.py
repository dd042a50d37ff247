"""Property-based tests (hypothesis) for the core invariants.

The invariants the paper's correctness rests on:

* turn-model and ad hoc cycle breaking always yield **acyclic** CDGs on any
  mesh, with every node pair still routable;
* any route selected on a flow graph derived from an acyclic CDG conforms to
  that CDG, and any complete route set selected that way induces an acyclic
  CDG (deadlock freedom, Lemma 1);
* MCL accounting is consistent: the MCL of a route set equals the maximum
  over channels of the sum of demands routed across that channel, and
  scaling all demands scales the MCL linearly;
* dimension-order routes are always minimal and never turn more than once.
"""

from __future__ import annotations

import math

import networkx as nx
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdg import (
    ChannelDependenceGraph,
    TurnModel,
    ad_hoc_cdg,
    turn_model_cdg,
)
from repro.flowgraph import FlowGraph
from repro.metrics import maximum_channel_load
from repro.routing import (
    DijkstraSelector,
    XYRouting,
    YXRouting,
    analyze_route_set,
)
from repro.topology import Mesh2D
from repro.traffic import Flow, FlowSet

# Keep hypothesis examples small: meshes up to 5x5 and modest flow counts so
# the whole property suite stays under a few seconds.
mesh_dims = st.tuples(st.integers(2, 5), st.integers(2, 5))
turn_models = st.sampled_from(list(TurnModel))
paper_models = st.sampled_from([TurnModel.WEST_FIRST, TurnModel.NORTH_LAST,
                                TurnModel.NEGATIVE_FIRST])
seeds = st.integers(0, 10_000)

common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_flow_set(draw, num_nodes: int, max_flows: int = 8) -> FlowSet:
    """Draw a small random flow set with distinct (source, destination) pairs."""
    count = draw(st.integers(1, max_flows))
    flows = FlowSet(name="hypothesis")
    pairs = set()
    for _ in range(count):
        source = draw(st.integers(0, num_nodes - 1))
        destination = draw(st.integers(0, num_nodes - 1))
        if source == destination or (source, destination) in pairs:
            continue
        pairs.add((source, destination))
        demand = draw(st.floats(0.5, 100.0, allow_nan=False, allow_infinity=False))
        flows.add_flow(source, destination, demand)
    if len(flows) == 0:
        flows.add_flow(0, num_nodes - 1, 1.0)
    return flows


class TestCDGProperties:
    @common_settings
    @given(dims=mesh_dims, model=turn_models)
    def test_turn_model_cdgs_are_acyclic_on_any_mesh(self, dims, model):
        mesh = Mesh2D(*dims)
        cdg = turn_model_cdg(mesh, model)
        assert cdg.is_acyclic()

    @common_settings
    @given(dims=mesh_dims, seed=seeds)
    def test_ad_hoc_cdgs_are_acyclic_and_fully_routable(self, dims, seed):
        mesh = Mesh2D(*dims)
        cdg = ad_hoc_cdg(mesh, seed=seed)
        assert cdg.is_acyclic()
        flow_graph = FlowGraph(cdg)
        for src in mesh.nodes:
            for dst in mesh.nodes:
                if src != dst:
                    assert flow_graph.path_exists(src, dst)

    @common_settings
    @given(dims=mesh_dims, model=paper_models)
    def test_turn_model_keeps_all_pairs_routable(self, dims, model):
        mesh = Mesh2D(*dims)
        flow_graph = FlowGraph(turn_model_cdg(mesh, model))
        for src in mesh.nodes:
            for dst in mesh.nodes:
                if src != dst:
                    assert flow_graph.path_exists(src, dst)

    @common_settings
    @given(dims=mesh_dims, model=paper_models)
    def test_turn_model_shortest_paths_stay_minimal(self, dims, model):
        """Two-turn prohibitions never lengthen shortest paths on a mesh."""
        mesh = Mesh2D(*dims)
        flow_graph = FlowGraph(turn_model_cdg(mesh, model))
        for src in mesh.nodes:
            for dst in mesh.nodes:
                if src != dst:
                    assert flow_graph.minimal_hop_count(src, dst) == \
                        mesh.manhattan_distance(src, dst)


def networkx_cycle(graph: nx.DiGraph):
    """What ``find_cycle`` was before it learnt the linear accept path."""
    try:
        return list(nx.find_cycle(graph, orientation=None))
    except nx.NetworkXNoCycle:
        return None


def assert_same_answer_as_networkx(cdg: ChannelDependenceGraph) -> None:
    expected = networkx_cycle(cdg.graph)
    cycle = cdg.find_cycle()
    assert cycle == expected
    assert cdg.is_acyclic() == (cycle is None)
    if cycle is not None:
        # a closed walk over edges the graph has
        assert all(cdg.has_edge(upstream, downstream)
                   for upstream, downstream in cycle)
        assert all(edge[1] == following[0]
                   for edge, following in zip(cycle, cycle[1:]))
        assert cycle[-1][1] == cycle[0][0]


class TestFindCycleMatchesNetworkx:
    """``ChannelDependenceGraph.find_cycle`` returns ``None`` exactly when
    ``nx.find_cycle`` raises ``NetworkXNoCycle`` and otherwise the very
    list networkx returns."""

    @settings(max_examples=200, deadline=None)
    @given(edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                          max_size=40),
           isolated=st.lists(st.integers(0, 15), max_size=4))
    def test_on_random_digraphs(self, edges, isolated):
        graph = nx.DiGraph()
        graph.add_nodes_from(isolated)
        graph.add_edges_from(edges)  # self loops included
        assert_same_answer_as_networkx(
            ChannelDependenceGraph(Mesh2D(2), graph=graph))

    @common_settings
    @given(size=st.integers(3, 6), data=st.data())
    def test_on_a_strategy_cdg_with_an_edge_put_back(self, size, data):
        from repro.routing.bsor import full_strategy_set, paper_strategies

        mesh = Mesh2D(size)
        strategies = {strategy.name: strategy for strategy in
                      paper_strategies() + full_strategy_set(mesh)}
        strategy = strategies[data.draw(st.sampled_from(sorted(strategies)))]
        cdg = strategy.builder(mesh, 1)
        # putting one removed dependence back usually closes a cycle
        upstream, downstream = data.draw(
            st.sampled_from(list(cdg.removed_edges)))
        cdg.graph.add_edge(upstream, downstream)
        assert_same_answer_as_networkx(cdg)

    def test_on_every_strategy_cdg_of_every_mesh_size(self):
        from repro.routing.bsor import full_strategy_set, paper_strategies

        for size in range(3, 7):
            mesh = Mesh2D(size)
            full = ChannelDependenceGraph.from_topology(mesh)
            assert_same_answer_as_networkx(full)
            assert full.find_cycle() is not None
            for strategy in paper_strategies() + full_strategy_set(mesh):
                cdg = strategy.builder(mesh, 1)
                assert_same_answer_as_networkx(cdg)
                assert cdg.find_cycle() is None


class TestRoutingProperties:
    @common_settings
    @given(data=st.data(), dims=mesh_dims, model=paper_models)
    def test_dijkstra_routes_conform_and_are_deadlock_free(self, data, dims, model):
        mesh = Mesh2D(*dims)
        flows = random_flow_set(data.draw, mesh.num_nodes)
        cdg = turn_model_cdg(mesh, model)
        flow_graph = FlowGraph(cdg)
        flow_graph.add_flow_terminals(flows)
        routes = DijkstraSelector(flow_graph).select_routes(flows)
        assert routes.is_complete()
        for route in routes:
            assert cdg.path_conforms(list(route.resources))
        assert analyze_route_set(routes).deadlock_free

    @common_settings
    @given(data=st.data(), dims=mesh_dims)
    def test_dor_routes_are_minimal_with_at_most_one_turn(self, data, dims):
        mesh = Mesh2D(*dims)
        flows = random_flow_set(data.draw, mesh.num_nodes)
        for algorithm in (XYRouting(), YXRouting()):
            routes = algorithm.compute_routes(mesh, flows)
            for route in routes:
                assert route.is_minimal(mesh)
                assert route.turn_count(mesh) <= 1
            assert analyze_route_set(routes).deadlock_free

    @common_settings
    @given(data=st.data(), dims=mesh_dims)
    def test_mcl_equals_recomputed_channel_maximum(self, data, dims):
        mesh = Mesh2D(*dims)
        flows = random_flow_set(data.draw, mesh.num_nodes)
        routes = XYRouting().compute_routes(mesh, flows)
        loads = {}
        for route in routes:
            for channel in route.channels:
                loads[channel] = loads.get(channel, 0.0) + route.flow.demand
        expected = max(loads.values()) if loads else 0.0
        assert math.isclose(maximum_channel_load(routes), expected)

    @common_settings
    @given(data=st.data(), dims=mesh_dims,
           factor=st.floats(0.1, 10.0, allow_nan=False))
    def test_mcl_scales_linearly_with_demands(self, data, dims, factor):
        mesh = Mesh2D(*dims)
        flows = random_flow_set(data.draw, mesh.num_nodes)
        base = XYRouting().compute_routes(mesh, flows).max_channel_load()
        scaled = XYRouting().compute_routes(
            mesh, flows.scaled(factor)
        ).max_channel_load()
        assert math.isclose(scaled, base * factor, rel_tol=1e-9)

    @common_settings
    @given(data=st.data(), dims=mesh_dims, model=paper_models)
    def test_bsor_mcl_never_exceeds_total_demand(self, data, dims, model):
        mesh = Mesh2D(*dims)
        flows = random_flow_set(data.draw, mesh.num_nodes)
        flow_graph = FlowGraph(turn_model_cdg(mesh, model))
        flow_graph.add_flow_terminals(flows)
        routes = DijkstraSelector(flow_graph).select_routes(flows)
        assert routes.max_channel_load() <= flows.total_demand() + 1e-9
        # and it is at least the largest single demand that must cross a link
        assert routes.max_channel_load() >= flows.max_demand() - 1e-9
