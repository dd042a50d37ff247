"""Tests for channel-dependence-graph construction and analysis."""

import pytest

from repro.cdg import (
    ChannelDependenceGraph,
    cdg_from_routes,
    dependence_count_by_turn,
)
from repro.exceptions import CDGError, CyclicCDGError
from repro.topology import Channel, Direction, Mesh2D, Ring, VirtualChannel


class TestConstruction:
    def test_vertex_count_equals_channel_count(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        assert cdg.num_vertices == mesh3.num_channels

    def test_no_180_degree_edges(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        for channel in mesh3.channels:
            assert not cdg.has_edge(channel, channel.reverse)

    def test_u_turn_edges_present_when_allowed(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3, allow_u_turns=True)
        assert cdg.has_edge(mesh3.channel(0, 1), mesh3.channel(1, 0))

    def test_consecutive_channels_are_edges(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        assert cdg.has_edge(mesh3.channel(0, 1), mesh3.channel(1, 2))
        assert cdg.has_edge(mesh3.channel(0, 1), mesh3.channel(1, 4))

    def test_non_consecutive_channels_are_not_edges(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        assert not cdg.has_edge(mesh3.channel(0, 1), mesh3.channel(2, 5))

    def test_full_mesh_cdg_is_cyclic(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        assert not cdg.is_acyclic()
        assert cdg.find_cycle() is not None

    def test_paper_example_cycle_exists(self, mesh3):
        """The cycle DG -> GH -> HE -> ED -> DG mentioned under Figure 3-1.

        (The paper names it with its own letter layout; here we simply check
        that the four channels around an inner face form a CDG cycle.)
        """
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        face = [mesh3.channel(0, 1), mesh3.channel(1, 4),
                mesh3.channel(4, 3), mesh3.channel(3, 0)]
        for upstream, downstream in zip(face, face[1:] + face[:1]):
            assert cdg.has_edge(upstream, downstream)

    def test_unidirectional_ring_cdg_is_a_single_cycle(self, unidirectional_ring):
        cdg = ChannelDependenceGraph.from_topology(unidirectional_ring)
        assert not cdg.is_acyclic()
        assert cdg.num_edges == unidirectional_ring.num_channels

    def test_invalid_vc_count(self, mesh3):
        with pytest.raises(CDGError):
            ChannelDependenceGraph.from_topology(mesh3, num_vcs=0)


class TestVirtualChannelExpansion:
    def test_vertex_count_scales_with_vcs(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3, num_vcs=2)
        assert cdg.num_vertices == 2 * mesh3.num_channels

    def test_z_squared_edges_between_consecutive_links(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3, num_vcs=2)
        upstream = mesh3.channel(0, 1)
        downstream = mesh3.channel(1, 2)
        count = sum(
            1
            for a in range(2)
            for b in range(2)
            if cdg.has_edge(VirtualChannel(upstream, a), VirtualChannel(downstream, b))
        )
        assert count == 4

    def test_edge_count_is_z_squared_times_single_vc(self, mesh3):
        single = ChannelDependenceGraph.from_topology(mesh3, num_vcs=1)
        double = ChannelDependenceGraph.from_topology(mesh3, num_vcs=2)
        assert double.num_edges == 4 * single.num_edges


class TestMutationAndCycles:
    def test_remove_edge_records_history(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        edge = cdg.edges[0]
        cdg.remove_edge(*edge)
        assert edge in cdg.removed_edges
        assert cdg.num_removed_edges == 1
        assert not cdg.has_edge(*edge)

    def test_remove_missing_edge_raises(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        with pytest.raises(CDGError):
            cdg.remove_edge(mesh3.channel(0, 1), mesh3.channel(1, 0))

    def test_remove_edges_ignores_absent(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        removed = cdg.remove_edges([
            (mesh3.channel(0, 1), mesh3.channel(1, 2)),
            (mesh3.channel(0, 1), mesh3.channel(1, 0)),   # u-turn, not present
        ])
        assert removed == 1

    def test_copy_is_independent(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        clone = cdg.copy()
        clone.remove_edge(*clone.edges[0])
        assert clone.num_edges == cdg.num_edges - 1

    def test_require_acyclic_raises_on_cycles(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        with pytest.raises(CyclicCDGError):
            cdg.require_acyclic()

    def test_cyclic_error_text_is_the_networkx_witness(self, mesh3,
                                                       unidirectional_ring):
        """``find_cycle`` answers "acyclic" with a linear check and only
        searches for a witness on a cyclic graph — the witness, and with it
        the error text, is the one ``nx.find_cycle`` always produced
        (recorded before the linear check existed)."""
        from repro.cdg import TurnModel, turn_model_cdg
        from repro.topology import Torus2D

        for model in (TurnModel.WEST_FIRST, TurnModel.NORTH_LAST,
                      TurnModel.NEGATIVE_FIRST):
            with pytest.raises(CyclicCDGError) as raised:
                # a plain turn model cannot break a torus' wrap-around rings
                turn_model_cdg(Torus2D(4), model)
            assert str(raised.value) == (
                "CDG 'torus2d' has a cycle: 0->1 -> 1->2 -> 2->3 -> 3->0")
        with pytest.raises(CyclicCDGError) as raised:
            ChannelDependenceGraph.from_topology(mesh3).require_acyclic()
        assert str(raised.value) == (
            "CDG 'cdg' has a cycle: 4->1 -> 1->0 -> 0->3 -> 3->4")
        with pytest.raises(CyclicCDGError) as raised:
            ChannelDependenceGraph.from_topology(
                unidirectional_ring, name="ring").require_acyclic()
        assert str(raised.value) == (
            "CDG 'ring' has a cycle: 0->1 -> 1->2 -> 2->3 -> 3->0")

    def test_find_cycle_is_none_exactly_on_acyclic_graphs(self, mesh3,
                                                          west_first_cdg):
        assert west_first_cdg.find_cycle() is None
        cycle = ChannelDependenceGraph.from_topology(mesh3).find_cycle()
        assert cycle is not None and cycle[0][0] == cycle[-1][1]

    def test_topological_order_of_acyclic_graph(self, west_first_cdg):
        order = west_first_cdg.topological_order()
        position = {resource: index for index, resource in enumerate(order)}
        for upstream, downstream in west_first_cdg.edges:
            assert position[upstream] < position[downstream]

    def test_strongly_connected_components(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        assert len(cdg.strongly_connected_components()) >= 1


class TestTurnsAndConformance:
    def test_turn_of_edge(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        turn = cdg.turn_of_edge(mesh3.channel(0, 1), mesh3.channel(1, 4))
        assert turn == (Direction.EAST, Direction.NORTH)

    def test_turn_of_nonconsecutive_edge_raises(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        with pytest.raises(CDGError):
            cdg.turn_of_edge(mesh3.channel(0, 1), mesh3.channel(4, 5))

    def test_edges_with_turn(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        east_north = cdg.edges_with_turn((Direction.EAST, Direction.NORTH))
        assert (mesh3.channel(0, 1), mesh3.channel(1, 4)) in east_north

    def test_dependence_count_by_turn_has_straights(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        histogram = dependence_count_by_turn(cdg)
        assert histogram.get("straight", 0) > 0
        assert sum(histogram.values()) == cdg.num_edges

    def test_path_conforms(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        good = [mesh3.channel(0, 1), mesh3.channel(1, 2), mesh3.channel(2, 5)]
        bad = [mesh3.channel(0, 1), mesh3.channel(1, 0)]  # u-turn
        assert cdg.path_conforms(good)
        assert not cdg.path_conforms(bad)

    def test_successors_and_predecessors(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        successors = cdg.successors(mesh3.channel(0, 1))
        assert mesh3.channel(1, 2) in successors
        assert mesh3.channel(1, 0) not in successors
        predecessors = cdg.predecessors(mesh3.channel(1, 2))
        assert mesh3.channel(0, 1) in predecessors

    def test_successors_of_unknown_resource(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        with pytest.raises(CDGError):
            cdg.successors(Channel(90, 91))


class TestInducedCDG:
    def test_route_induced_cdg_edges(self, mesh3):
        routes = [
            [mesh3.channel(0, 1), mesh3.channel(1, 2)],
            [mesh3.channel(2, 5), mesh3.channel(5, 8)],
        ]
        induced = cdg_from_routes(mesh3, routes)
        assert induced.num_vertices == 4
        assert induced.num_edges == 2
        assert induced.is_acyclic()

    def test_route_induced_cdg_detects_cycles(self, unidirectional_ring):
        ring = unidirectional_ring
        # Each flow goes three quarters of the way around; together the four
        # routes close the classic ring deadlock cycle.
        channels = list(ring.channels)
        routes = []
        for start in range(4):
            routes.append([channels[(start + offset) % 4] for offset in range(3)])
        induced = cdg_from_routes(ring, routes)
        assert not induced.is_acyclic()

    def test_non_consecutive_route_rejected(self, mesh3):
        with pytest.raises(CDGError):
            cdg_from_routes(mesh3, [[mesh3.channel(0, 1), mesh3.channel(2, 5)]])

    def test_describe_and_labels(self, mesh3):
        cdg = ChannelDependenceGraph.from_topology(mesh3)
        assert "AB" in cdg.resource_label(mesh3.channel(0, 1))
        assert "vertices" in cdg.describe(max_edges=2)
