"""Tests for the torus and ring topologies (and every topology's
degraded copy)."""

import copy

import pytest

from repro.exceptions import TopologyError
from repro.topology import Direction, Mesh2D, Ring, Torus2D


class TestTorus:
    def test_counts(self, torus3):
        assert torus3.num_nodes == 9
        # every node has 4 outgoing channels on a torus
        assert torus3.num_channels == 9 * 4

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            Torus2D(2)

    def test_wraparound_channels_exist(self, torus3):
        # node 2 is at (2, 0); its east neighbour wraps to (0, 0) = node 0.
        assert torus3.has_channel(2, 0)
        assert torus3.direction_of(torus3.channel(2, 0)) is Direction.EAST

    def test_wraparound_direction_west(self, torus3):
        assert torus3.direction_of(torus3.channel(0, 2)) is Direction.WEST

    def test_manhattan_distance_uses_wraparound(self, torus3):
        # (0,0) to (2,2) is 2 hops on a 3x3 torus (one wrap in each dim).
        assert torus3.manhattan_distance(0, 8) == 2

    def test_shortest_path_matches_ring_distance(self, torus3):
        for src in torus3.nodes:
            for dst in torus3.nodes:
                assert torus3.shortest_path_length(src, dst) == \
                    torus3.manhattan_distance(src, dst)

    def test_minimal_quadrant_contains_endpoints(self, torus3):
        quadrant = torus3.minimal_quadrant(0, 8)
        assert 0 in quadrant and 8 in quadrant

    def test_every_node_has_degree_four(self, torus3):
        for node in torus3.nodes:
            assert len(torus3.out_channels(node)) == 4
            assert len(torus3.in_channels(node)) == 4

    def test_coordinates_round_trip(self, torus3):
        for node in torus3.nodes:
            assert torus3.node_at(*torus3.coordinates(node)) == node

    def test_is_connected(self, torus3):
        assert torus3.is_connected()


class TestRing:
    def test_bidirectional_counts(self, ring5):
        assert ring5.num_nodes == 5
        assert ring5.num_channels == 10

    def test_unidirectional_counts(self, unidirectional_ring):
        assert unidirectional_ring.num_channels == 4

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            Ring(2)

    def test_directions(self, ring5):
        assert ring5.direction_of(ring5.channel(0, 1)) is Direction.EAST
        assert ring5.direction_of(ring5.channel(1, 0)) is Direction.WEST

    def test_ring_distance_bidirectional(self, ring5):
        assert ring5.ring_distance(0, 4) == 1
        assert ring5.ring_distance(0, 2) == 2

    def test_ring_distance_unidirectional(self, unidirectional_ring):
        assert unidirectional_ring.ring_distance(0, 3) == 3
        assert unidirectional_ring.ring_distance(3, 0) == 1

    def test_unidirectional_connectivity(self, unidirectional_ring):
        assert unidirectional_ring.is_connected()

    def test_coordinates(self, ring5):
        assert ring5.coordinates(3) == (3,)
        assert ring5.node_at(3) == 3
        with pytest.raises(TopologyError):
            ring5.node_at(1, 2)


def _deepcopy_degraded(topology, channels):
    """``without_channels`` as it was: a deep copy, then the removals."""
    reference = copy.deepcopy(topology)
    for channel in channels:
        reference._remove_channel(channel)
    return reference


@pytest.fixture(params=[lambda: Mesh2D(4), lambda: Mesh2D(3, 5),
                        lambda: Torus2D(4), lambda: Ring(6),
                        lambda: Ring(5, bidirectional=False)],
                ids=["mesh4x4", "mesh3x5", "torus4x4", "ring6", "ring5-uni"])
def topology(request):
    return request.param()


class TestDegradedCopy:
    """``without_channels`` copies four containers, not the whole object."""

    def test_same_class_nodes_and_channels_as_a_deep_copy(self, topology):
        removed = [topology.channels[0], topology.channels[-1]]
        degraded = topology.without_channels(removed)
        reference = _deepcopy_degraded(topology, removed)
        assert type(degraded) is type(topology)
        assert degraded.channels == reference.channels
        assert degraded.nodes == topology.nodes
        for node in topology.nodes:
            assert degraded.out_channels(node) == reference.out_channels(node)
            assert degraded.in_channels(node) == reference.in_channels(node)
            assert degraded.coordinates(node) == topology.coordinates(node)
        for channel in degraded.channels:
            assert degraded.direction_of(channel) is \
                topology.direction_of(channel)
        assert vars(degraded).keys() == vars(topology).keys()

    def test_no_mutable_state_is_shared_in_either_direction(self, topology):
        before = topology.channels
        first, second = before[0], before[1]
        degraded = topology.without_channels([first])
        # the original is untouched by the copy's removals ...
        assert topology.channels == before
        assert first in topology.out_channels(first.src)
        assert first in topology.in_channels(first.dst)
        assert topology.has_channel(first.src, first.dst)
        # ... by later edits of the copy ...
        degraded._remove_channel(second)
        assert topology.has_channel(second.src, second.dst)
        assert second in topology.out_channels(second.src)
        assert second in topology.in_channels(second.dst)
        # ... and the copy by edits of the original
        third = before[2]
        snapshot = degraded.channels
        topology._remove_channel(third)
        assert degraded.channels == snapshot
        assert degraded.has_channel(third.src, third.dst)
        assert third in degraded.out_channels(third.src)
        assert third in degraded.in_channels(third.dst)
        for name, value in vars(degraded).items():
            if isinstance(value, (list, set, dict)):
                assert value is not vars(topology)[name], name

    def test_unknown_channel_still_raises(self, topology):
        present = topology.channels[0]
        degraded = topology.without_channels([present])
        with pytest.raises(TopologyError):
            degraded.without_channels([present])
