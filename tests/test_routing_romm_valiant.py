"""Tests for the randomized baselines: ROMM, Valiant and O1TURN."""

import pytest

from repro.exceptions import RoutingError
from repro.routing import (
    O1TurnRouting,
    ROMMRouting,
    ValiantRouting,
    analyze_virtual_networks,
)
from repro.simulator.simulation import phase_boundaries_from_intermediates
from repro.topology import Mesh2D
from repro.traffic import FlowSet, transpose, uniform_random


class TestROMM:
    def test_all_flows_routed(self, mesh4, transpose4):
        routes = ROMMRouting(seed=1).compute_routes(mesh4, transpose4)
        assert routes.is_complete()

    def test_routes_are_minimal(self, mesh4, transpose4):
        """ROMM confines the intermediate node to the minimal quadrant, so
        every route stays minimal."""
        routes = ROMMRouting(seed=1).compute_routes(mesh4, transpose4)
        assert all(route.is_minimal(mesh4) for route in routes)

    def test_intermediates_inside_minimal_quadrant(self, mesh4, transpose4):
        algorithm = ROMMRouting(seed=2)
        algorithm.compute_routes(mesh4, transpose4)
        for flow in transpose4:
            intermediate = algorithm.intermediates[flow.name]
            assert intermediate in mesh4.minimal_quadrant(flow.source,
                                                          flow.destination)

    def test_reproducible_with_seed(self, mesh4, transpose4):
        a = ROMMRouting(seed=3).compute_routes(mesh4, transpose4)
        b = ROMMRouting(seed=3).compute_routes(mesh4, transpose4)
        for flow in transpose4:
            assert a.route_of(flow).node_path == b.route_of(flow).node_path

    def test_different_seeds_change_routes(self, mesh8):
        flows = transpose(64, demand=1.0)
        a = ROMMRouting(seed=1).compute_routes(mesh8, flows)
        b = ROMMRouting(seed=2).compute_routes(mesh8, flows)
        assert any(a.route_of(flow).node_path != b.route_of(flow).node_path
                   for flow in flows)

    def test_two_phase_deadlock_analysis(self, mesh4, transpose4):
        algorithm = ROMMRouting(seed=1)
        routes = algorithm.compute_routes(mesh4, transpose4)
        report = analyze_virtual_networks(
            routes, phase_boundaries_from_intermediates(
                routes, algorithm.intermediates))
        assert report.deadlock_free

    def test_invalid_phase_order(self):
        with pytest.raises(RoutingError):
            ROMMRouting(first_phase_order="diagonal")


class TestValiant:
    def test_all_flows_routed(self, mesh4, transpose4):
        routes = ValiantRouting(seed=1).compute_routes(mesh4, transpose4)
        assert routes.is_complete()

    def test_longer_average_paths_than_minimal(self, mesh8):
        """Valiant sacrifices locality: its average path length exceeds the
        minimal average (the paper calls this its main weakness)."""
        flows = transpose(64, demand=1.0)
        valiant = ValiantRouting(seed=1).compute_routes(mesh8, flows)
        minimal_average = sum(
            mesh8.manhattan_distance(f.source, f.destination) for f in flows
        ) / len(flows)
        assert valiant.average_hop_count() > minimal_average

    def test_intermediate_excluded_endpoints(self, mesh4, transpose4):
        algorithm = ValiantRouting(seed=5)
        algorithm.compute_routes(mesh4, transpose4)
        for flow in transpose4:
            assert algorithm.intermediates[flow.name] not in flow.pair

    def test_intermediates_can_include_endpoints_when_allowed(self, mesh4):
        flows = uniform_random(16, seed=0)
        algorithm = ValiantRouting(seed=5, exclude_endpoints=False)
        routes = algorithm.compute_routes(mesh4, flows)
        assert routes.is_complete()

    def test_two_phase_deadlock_analysis(self, mesh4, transpose4):
        algorithm = ValiantRouting(seed=1)
        routes = algorithm.compute_routes(mesh4, transpose4)
        report = analyze_virtual_networks(
            routes, phase_boundaries_from_intermediates(
                routes, algorithm.intermediates))
        assert report.deadlock_free

    def test_reproducible_with_seed(self, mesh4, transpose4):
        a = ValiantRouting(seed=9).compute_routes(mesh4, transpose4)
        b = ValiantRouting(seed=9).compute_routes(mesh4, transpose4)
        for flow in transpose4:
            assert a.route_of(flow).node_path == b.route_of(flow).node_path

    def test_invalid_phase_order(self):
        with pytest.raises(RoutingError):
            ValiantRouting(second_phase_order="spiral")


class TestO1Turn:
    def test_all_flows_routed_minimally(self, mesh4, transpose4):
        routes = O1TurnRouting().compute_routes(mesh4, transpose4)
        assert routes.is_complete()
        assert all(route.is_minimal(mesh4) for route in routes)

    def test_at_most_one_turn_per_route(self, mesh4, transpose4):
        routes = O1TurnRouting().compute_routes(mesh4, transpose4)
        assert all(route.turn_count(mesh4) <= 1 for route in routes)

    def test_alternate_policy_splits_evenly(self, mesh4, transpose4):
        algorithm = O1TurnRouting(policy="alternate")
        algorithm.compute_routes(mesh4, transpose4)
        orders = list(algorithm.assignments.values())
        assert abs(orders.count("xy") - orders.count("yx")) <= 1

    def test_random_policy_reproducible(self, mesh4, transpose4):
        a = O1TurnRouting(policy="random", seed=4)
        b = O1TurnRouting(policy="random", seed=4)
        a.compute_routes(mesh4, transpose4)
        b.compute_routes(mesh4, transpose4)
        assert a.assignments == b.assignments

    def test_invalid_policy(self):
        with pytest.raises(RoutingError):
            O1TurnRouting(policy="coin")

    def test_o1turn_balances_transpose_better_than_xy(self, mesh8):
        """Balancing between XY and YX halves the transpose bottleneck."""
        from repro.routing import XYRouting

        flows = transpose(64, demand=25.0)
        xy_mcl = XYRouting().compute_routes(mesh8, flows).max_channel_load()
        o1_mcl = O1TurnRouting().compute_routes(mesh8, flows).max_channel_load()
        assert o1_mcl < xy_mcl
