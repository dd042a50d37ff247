"""Tests for ad hoc (up*/down*) cycle breaking."""

import pytest

from repro.cdg import (
    ChannelDependenceGraph,
    TurnModel,
    ad_hoc_cdg,
    break_cycles_up_down,
    turn_model_cdg,
)
from repro.flowgraph import FlowGraph
from repro.topology import Mesh2D, Ring, Torus2D

#: Topologies with a channel each way on every link: the up*/down* proof
#: (tree path up to the root, then down) needs the reverse channels.
BIDIRECTIONAL = [Mesh2D(3), Mesh2D(5), Torus2D(3), Torus2D(4), Ring(5),
                 Ring(6)]


@pytest.mark.parametrize("num_vcs", [1, 2])
@pytest.mark.parametrize("topology", BIDIRECTIONAL, ids=repr)
def test_every_pair_stays_routable(topology, num_vcs):
    acyclic = ad_hoc_cdg(topology, seed=3, num_vcs=num_vcs)
    assert acyclic.is_acyclic()
    flow_graph = FlowGraph(acyclic)
    for src in topology.nodes:
        for dst in topology.nodes:
            if src != dst:
                assert flow_graph.path_exists(src, dst), f"{src} -> {dst}"


class TestUpDownBreaking:
    def test_result_is_acyclic(self, mesh4):
        base = ChannelDependenceGraph.from_topology(mesh4)
        acyclic = break_cycles_up_down(base, seed=1)
        assert acyclic.is_acyclic()

    def test_original_untouched_without_in_place(self, mesh3):
        base = ChannelDependenceGraph.from_topology(mesh3)
        edges = base.num_edges
        break_cycles_up_down(base, seed=1)
        assert base.num_edges == edges

    def test_in_place_edits_and_returns_the_given_graph(self, mesh3):
        base = ChannelDependenceGraph.from_topology(mesh3)
        edges = base.num_edges
        result = break_cycles_up_down(base, seed=1, in_place=True)
        assert result is base
        assert base.is_acyclic()
        assert base.num_edges < edges

    def test_copy_is_named_after_the_seed(self, mesh3):
        base = ChannelDependenceGraph.from_topology(mesh3, name="full")
        assert break_cycles_up_down(base, seed=5).name == \
            "full/adhoc-updown-5"

    def test_reproducible_for_a_seed(self, mesh4):
        base = ChannelDependenceGraph.from_topology(mesh4)
        a = break_cycles_up_down(base, seed=5)
        b = break_cycles_up_down(base, seed=5)
        assert set(a.removed_edges) == set(b.removed_edges)

    def test_only_dependence_edges_are_removed(self, mesh4):
        base = ChannelDependenceGraph.from_topology(mesh4)
        acyclic = break_cycles_up_down(base, seed=2)
        assert set(acyclic.vertices) == set(base.vertices)
        assert set(acyclic.removed_edges) <= set(base.edges)
        assert acyclic.num_edges + acyclic.num_removed_edges == \
            base.num_edges

    def test_virtual_channels_share_the_physical_cut(self, mesh4):
        """Up and down are properties of the physical channel, so with two
        VCs each removed physical dependence removes all four VC pairs."""
        one = ad_hoc_cdg(mesh4, seed=1)
        two = ad_hoc_cdg(mesh4, seed=1, num_vcs=2)
        assert two.num_vertices == 2 * one.num_vertices
        assert two.num_removed_edges == 4 * one.num_removed_edges

    def test_all_pairs_remain_routable(self, mesh4):
        """The up*/down* construction must never disconnect a node pair."""
        for seed in (1, 2, 3):
            acyclic = ad_hoc_cdg(mesh4, seed=seed)
            flow_graph = FlowGraph(acyclic)
            for src in mesh4.nodes:
                for dst in mesh4.nodes:
                    if src != dst:
                        assert flow_graph.path_exists(src, dst), \
                            f"seed {seed}: {src} cannot reach {dst}"

    def test_removes_more_edges_than_turn_model(self, mesh3):
        """Matches the paper's observation: ad hoc CDGs typically sacrifice
        more dependence edges than the turn model (12 vs 8 on the 3x3)."""
        adhoc = ad_hoc_cdg(mesh3, seed=1)
        turn = turn_model_cdg(mesh3, TurnModel.WEST_FIRST)
        assert adhoc.num_removed_edges >= turn.num_removed_edges

    def test_reproducible(self, mesh4):
        a = ad_hoc_cdg(mesh4, seed=7)
        b = ad_hoc_cdg(mesh4, seed=7)
        assert set(a.removed_edges) == set(b.removed_edges)

    def test_different_seeds_differ(self, mesh8):
        a = ad_hoc_cdg(mesh8, seed=1)
        b = ad_hoc_cdg(mesh8, seed=2)
        assert set(a.removed_edges) != set(b.removed_edges)


class TestAdHocFactory:
    def test_naming(self, mesh3):
        assert ad_hoc_cdg(mesh3, seed=4).name == "adhoc-4"

    def test_lower_bound_is_respected(self, mesh3):
        base = ChannelDependenceGraph.from_topology(mesh3)
        # every non-trivial strongly connected component needs at least one
        # edge removed
        bound = len(base.strongly_connected_components())
        for seed in (1, 2):
            assert ad_hoc_cdg(mesh3, seed=seed).num_removed_edges >= bound

    def test_ring_cycle_breaking(self, unidirectional_ring):
        base = ChannelDependenceGraph.from_topology(unidirectional_ring)
        acyclic = break_cycles_up_down(base, seed=0)
        assert acyclic.is_acyclic()
        assert acyclic.num_removed_edges >= 1
