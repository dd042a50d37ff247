"""Tests for channel-load metrics (MCL and load reports)."""

import pytest

from repro.metrics import load_report, recompute_mcl_with_demands
from repro.routing import RouteSet, XYRouting
from repro.topology import Channel
from repro.traffic import FlowSet


@pytest.fixture
def simple_routes(mesh3):
    flows = FlowSet.from_tuples([(0, 2, 10.0), (0, 8, 2.0), (6, 8, 5.0)])
    routes = RouteSet(mesh3, flows, algorithm="manual")
    routes.add_node_path(flows[0], [0, 1, 2])
    routes.add_node_path(flows[1], [0, 1, 2, 5, 8])
    routes.add_node_path(flows[2], [6, 7, 8])
    return routes


class TestLoads:
    def test_channel_loads_and_mcl(self, simple_routes):
        loads = simple_routes.channel_loads()
        assert loads[Channel(0, 1)] == 12.0
        assert simple_routes.max_channel_load() == 12.0

    def test_load_report_fields(self, simple_routes):
        report = load_report(simple_routes)
        assert report.mcl == 12.0
        assert report.loaded_channels == 6
        assert report.total_channels == 24
        assert Channel(0, 1) in report.bottlenecks
        assert 0.0 <= report.gini <= 1.0
        assert "MCL" in report.describe(simple_routes.topology)

    def test_near_critical_channels(self, simple_routes):
        report = load_report(simple_routes, near_critical_fraction=0.5)
        # channels carrying >= 6.0 load: the two at 12.0
        assert len(report.near_critical) == 2

    def test_average_load_counts_used_channels_only(self, simple_routes):
        report = load_report(simple_routes)
        # two channels at 12, two at 2 and two at 5
        assert report.average_load == pytest.approx(38.0 / 6)

    def test_default_near_critical_is_ninety_percent(self, simple_routes):
        report = load_report(simple_routes)
        assert report.near_critical == [Channel(0, 1), Channel(1, 2)]

    def test_zero_fraction_marks_every_loaded_channel(self, simple_routes):
        report = load_report(simple_routes, near_critical_fraction=0.0)
        assert report.near_critical == sorted(simple_routes.channel_loads())

    def test_tied_bottlenecks_are_sorted(self, simple_routes):
        assert load_report(simple_routes).bottlenecks == [Channel(0, 1),
                                                          Channel(1, 2)]

    def test_describe_without_topology_prints_raw_channels(self,
                                                           simple_routes):
        text = load_report(simple_routes).describe()
        assert str(Channel(0, 1)) in text
        assert "used channels: 6/24" in text

    def test_even_load_has_zero_gini(self, ring5):
        # one flow each way over every link loads all ten channels equally
        flows = FlowSet()
        for node in range(5):
            flows.add_flow(node, (node + 1) % 5, 1.0)
            flows.add_flow((node + 1) % 5, node, 1.0)
        routes = RouteSet(ring5, flows, algorithm="manual")
        for flow in flows:
            routes.add_node_path(flow, [flow.source, flow.destination])
        report = load_report(routes)
        assert report.loaded_channels == report.total_channels == 10
        assert report.gini == pytest.approx(0.0)

    def test_report_agrees_with_the_route_set(self, mesh4, transpose4):
        routes = XYRouting().compute_routes(mesh4, transpose4)
        report = load_report(routes)
        assert report.mcl == routes.max_channel_load()
        assert report.loads == routes.channel_loads()

    def test_recompute_mcl_with_demands(self, simple_routes):
        new_mcl = recompute_mcl_with_demands(simple_routes, {"f1": 1.0})
        assert new_mcl == pytest.approx(5.0)

    def test_recompute_with_missing_flow_keeps_original_demand(self, simple_routes):
        assert recompute_mcl_with_demands(simple_routes, {}) == 12.0

    def test_recompute_scales_with_every_demand(self, simple_routes):
        doubled = {route.flow.name: 2 * route.flow.demand
                   for route in simple_routes}
        assert recompute_mcl_with_demands(simple_routes, doubled) == \
            pytest.approx(2 * simple_routes.max_channel_load())

    def test_empty_route_set(self, mesh3):
        empty = RouteSet(mesh3, FlowSet())
        report = load_report(empty)
        assert report.mcl == 0.0
        assert report.bottlenecks == []
        assert report.gini == 0.0
