"""Tests for the deadlock-freedom analysis of route sets."""

import pytest

from repro.exceptions import DeadlockError
from repro.routing import (
    RouteSet,
    analyze_route_set,
    analyze_virtual_networks,
    check_deadlock_freedom,
    induced_cdg,
)
from repro.simulator.simulation import phase_boundaries_from_intermediates
from repro.topology import Mesh2D, Ring
from repro.traffic import FlowSet


@pytest.fixture
def ring_deadlock_routes(unidirectional_ring):
    """Four routes that together close the classic ring dependence cycle."""
    ring = unidirectional_ring
    flows = FlowSet(name="ring")
    routes = RouteSet(ring, flows, algorithm="ring-test")
    for start in range(4):
        flow = flows.add_flow(start, (start + 3) % 4, 1.0)
        path = [(start + offset) % 4 for offset in range(4)]
        routes.add_node_path(flow, path)
    return routes


@pytest.fixture
def safe_mesh_routes(mesh3):
    flows = FlowSet(name="safe")
    routes = RouteSet(mesh3, flows, algorithm="safe-test")
    flow_a = flows.add_flow(0, 2, 1.0)
    flow_b = flows.add_flow(6, 8, 1.0)
    routes.add_node_path(flow_a, [0, 1, 2])
    routes.add_node_path(flow_b, [6, 7, 8])
    return routes


class TestAnalysis:
    def test_acyclic_route_set_is_deadlock_free(self, safe_mesh_routes):
        report = analyze_route_set(safe_mesh_routes)
        assert report.deadlock_free
        assert bool(report)
        assert report.cycle is None
        assert "deadlock free" in report.describe()

    def test_ring_route_set_permits_deadlock(self, ring_deadlock_routes):
        report = analyze_route_set(ring_deadlock_routes)
        assert not report.deadlock_free
        assert report.cycle is not None
        assert "NOT deadlock free" in report.describe()

    def test_check_raises_on_deadlock(self, ring_deadlock_routes):
        with pytest.raises(DeadlockError):
            check_deadlock_freedom(ring_deadlock_routes)

    def test_check_returns_report_when_safe(self, safe_mesh_routes):
        report = check_deadlock_freedom(safe_mesh_routes)
        assert report.deadlock_free

    def test_induced_cdg_counts(self, safe_mesh_routes):
        cdg = induced_cdg(safe_mesh_routes)
        assert cdg.num_vertices == 4
        assert cdg.num_edges == 2


class TestTwoPhaseAnalysis:
    def test_phases_analysed_independently(self, mesh3):
        """A route set whose one-network CDG has a cycle can still be
        deadlock free when the two phases run on separate virtual networks."""
        flows = FlowSet(name="two-phase")
        routes = RouteSet(mesh3, flows, algorithm="two-phase")
        # Four flows, each detouring through an intermediate corner so that
        # the combined single-network dependence graph contains the face
        # cycle A->B->E->D->A.
        specs = [
            (0, 4, 1, [0, 1, 4]),
            (1, 3, 4, [1, 4, 3]),
            (4, 0, 3, [4, 3, 0]),
            (3, 1, 0, [3, 0, 1]),
        ]
        intermediates = {}
        for source, destination, pivot, path in specs:
            flow = flows.add_flow(source, destination, 1.0)
            routes.add_node_path(flow, path)
            intermediates[flow.name] = pivot

        single_network = analyze_route_set(routes)
        assert not single_network.deadlock_free

        two_phase = analyze_virtual_networks(
            routes, phase_boundaries_from_intermediates(routes, intermediates))
        assert two_phase.deadlock_free

    def test_missing_intermediates_treated_as_single_phase(self, safe_mesh_routes):
        report = analyze_virtual_networks(
            safe_mesh_routes,
            phase_boundaries_from_intermediates(safe_mesh_routes, {}))
        assert report.deadlock_free
