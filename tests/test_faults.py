"""Unit and integration tests for the fault-injection subsystem.

Covers the compact spec grammar and its canonicalisation, static topology
degradation, mid-run failure schedules, the deadlock-safe rerouting
contract of :func:`repro.faults.route_with_faults`, fault-aware cache keys
(a degraded run must never collide with its fault-free twin, in either
direction), the study-spec ``faults`` axis and the comparison matrix's
fault axis with its degradation report.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.compare.matrix import CompareMatrix, parse_topology
from repro.compare.saturation import SaturationCriteria
from repro.exceptions import (
    DeadlockError,
    FaultError,
    RoutingError,
    UnroutableFlowError,
)
from repro.experiments.config import ExperimentConfig
from repro.faults import (
    FailureSchedule,
    FaultSet,
    LinkFault,
    RouterFault,
    route_with_faults,
)
from repro.routing.registry import create_router
from repro.runner.fingerprint import simulation_cache_key
from repro.simulator import NetworkSimulator, SimulationConfig
from repro.simulator.injection import make_injection_process
from repro.study.resultset import degradation
from repro.study.spec import Scenario, Study
from repro.topology import Mesh2D, Torus2D
from repro.traffic import synthetic_by_name


# ----------------------------------------------------------------------
# spec grammar and canonicalisation
# ----------------------------------------------------------------------
class TestFaultSpecGrammar:
    def test_link_both_directions(self):
        fault = FaultSet.from_spec("link:0-1").faults[0]
        assert fault == LinkFault(0, 1)
        assert len(fault.channels()) == 2

    def test_directed_link(self):
        fault = FaultSet.from_spec("link:4>0").faults[0]
        assert fault == LinkFault(4, 0, directed=True)
        assert [(c.src, c.dst) for c in fault.channels()] == [(4, 0)]

    def test_router_fault(self):
        assert FaultSet.from_spec("router:5").faults[0] == RouterFault(5)

    def test_cycle_stamp(self):
        fault = FaultSet.from_spec("link:0-1@600").faults[0]
        assert fault.cycle == 600
        assert fault.label() == "link:0-1@600"

    def test_comma_joins_one_set(self):
        faults = FaultSet.from_spec("link:0-1, router:5")
        assert len(faults) == 2

    @pytest.mark.parametrize("empty", [None, "", "none", "NONE", "  none "])
    def test_empty_forms(self, empty):
        faults = FaultSet.from_spec(empty)
        assert not faults
        assert faults.label() == "none"

    def test_existing_fault_set_passes_through(self):
        faults = FaultSet.from_spec("link:0-1")
        assert FaultSet.from_spec(faults) is faults

    def test_mapping_entries(self):
        faults = FaultSet.from_spec([{"link": [0, 1], "cycle": 40},
                                     {"router": 5}])
        assert faults.faults == (LinkFault(0, 1, cycle=40), RouterFault(5))

    def test_undirected_normalisation(self):
        assert LinkFault(3, 1).label() == "link:1-3"
        assert FaultSet.from_spec("link:3-1") == FaultSet.from_spec("link:1-3")

    def test_canonical_order_and_dedup(self):
        one = FaultSet.from_spec("router:2,link:5-6,link:0-1,link:0-1")
        two = FaultSet.from_spec("link:0-1,link:5-6,router:2")
        assert one == two
        assert one.label() == "link:0-1,link:5-6,router:2"

    def test_static_and_scheduled_split(self):
        faults = FaultSet.from_spec("link:0-1,link:5-6@40")
        assert faults.static_faults == (LinkFault(0, 1),)
        assert faults.scheduled_faults == (LinkFault(5, 6, cycle=40),)

    @pytest.mark.parametrize("bad", [
        "wire:0-1", "link:0", "link:0-1-2", "link:a-b", "router:x",
        "link:0-1@soon", "link:0-0", "link:-1-2",
    ])
    def test_rejected_entries(self, bad):
        with pytest.raises(FaultError):
            FaultSet.from_spec(bad)

    def test_rejected_mapping_entries(self):
        with pytest.raises(FaultError, match="exactly one of"):
            FaultSet.from_spec({"link": [0, 1], "router": 5})
        with pytest.raises(FaultError, match="unknown fault entry key"):
            FaultSet.from_spec({"link": [0, 1], "when": 3})

    def test_non_fault_member_rejected(self):
        with pytest.raises(FaultError, match="not a fault"):
            FaultSet(("link:0-1",))  # must go through from_spec


# ----------------------------------------------------------------------
# static degradation and failure schedules
# ----------------------------------------------------------------------
class TestDegradeAndSchedule:
    def test_degrade_removes_both_directions(self, mesh4):
        degraded = FaultSet.from_spec("link:0-1").degrade(mesh4)
        assert not degraded.has_channel(0, 1)
        assert not degraded.has_channel(1, 0)
        assert degraded.num_channels == mesh4.num_channels - 2
        assert isinstance(degraded, Mesh2D)  # concrete class preserved

    def test_degrade_directed_removes_one(self, mesh4):
        degraded = FaultSet.from_spec("link:0>1").degrade(mesh4)
        assert not degraded.has_channel(0, 1)
        assert degraded.has_channel(1, 0)

    def test_router_fault_removes_all_incident_channels(self, mesh4):
        degraded = FaultSet.from_spec("router:5").degrade(mesh4)
        assert not degraded.in_channels(5)
        assert not degraded.out_channels(5)

    def test_no_static_faults_returns_same_object(self, mesh4):
        assert FaultSet.from_spec("link:0-1@40").degrade(mesh4) is mesh4
        assert FaultSet().degrade(mesh4) is mesh4

    def test_unknown_channel_rejected(self, mesh4):
        with pytest.raises(FaultError, match="does not have"):
            FaultSet.from_spec("link:0-5").degrade(mesh4)  # not adjacent

    def test_node_out_of_range_rejected(self, mesh4):
        with pytest.raises(FaultError, match="outside topology"):
            FaultSet.from_spec("router:99").degrade(mesh4)

    def test_schedule_events_sorted_by_cycle(self, mesh4):
        schedule = FaultSet.from_spec(
            "link:5-6@90,link:0-1@40").schedule(mesh4)
        assert [cycle for cycle, _ in schedule.events] == [40, 90]
        assert schedule.to_payload() == [
            [40, [[0, 1], [1, 0]]], [90, [[5, 6], [6, 5]]]]

    def test_scheduled_fault_on_statically_dead_link_rejected(self, mesh4):
        faults = FaultSet.from_spec("link:0-1,link:0-1@40")
        degraded = faults.degrade(mesh4)
        with pytest.raises(FaultError):
            faults.schedule(degraded)

    def test_schedule_is_picklable(self, mesh4):
        import pickle

        schedule = FaultSet.from_spec("link:0-1@40").schedule(mesh4)
        assert pickle.loads(pickle.dumps(schedule)) == schedule

    def test_empty_schedule_is_falsy(self, mesh4):
        assert not FaultSet.from_spec("link:0-1").schedule(
            FaultSet.from_spec("link:0-1").degrade(mesh4))
        with pytest.raises(FaultError):
            FailureSchedule(events=((0, ()),))


# ----------------------------------------------------------------------
# the rerouting contract
# ----------------------------------------------------------------------
class TestRouteWithFaults:
    def test_fault_free_set_routes_nominally(self, mesh4, transpose4):
        router = create_router("dor")
        routed = route_with_faults(router, mesh4, transpose4, None)
        assert routed.topology is mesh4
        assert routed.rerouted_flows == ()
        assert not routed.schedule
        assert routed.report and routed.report.deadlock_free

    def test_rerouted_flows_avoid_dead_link_and_stay_minimal(self, mesh4,
                                                             transpose4):
        router = create_router("dor")
        routed = route_with_faults(router, mesh4, transpose4, "link:0-1")
        assert routed.rerouted_flows  # XY sends 1 -> 4 through 0
        dead = {(0, 1), (1, 0)}
        for route in routed.route_set:
            hops = [(ch.src, ch.dst) for ch in route.channels]
            assert not dead & set(hops)
            # the fallback patch must not stretch any path: XY is minimal
            # and the degraded minimum equals the nominal one here
            assert len(hops) == (
                abs(route.flow.source % 4 - route.flow.destination % 4)
                + abs(route.flow.source // 4 - route.flow.destination // 4))
        assert routed.report.deadlock_free

    def test_bsor_resolves_natively_on_degraded_graph(self, mesh4,
                                                      transpose4):
        router = create_router("bsor-dijkstra", seed=0)
        routed = route_with_faults(router, mesh4, transpose4, "link:0-1")
        assert routed.rerouted_flows == ()  # no patch fallback needed
        assert routed.report.deadlock_free
        dead = {(0, 1), (1, 0)}
        for route in routed.route_set:
            assert not dead & {(ch.src, ch.dst) for ch in route.channels}

    def test_disconnection_names_the_unreachable_pair(self, mesh4,
                                                      transpose4):
        # failing router 1 orphans transpose's 1 -> 4 flow at its source
        router = create_router("dor")
        with pytest.raises(UnroutableFlowError,
                           match=r"no path from node 1 to node 4"):
            route_with_faults(router, mesh4, transpose4, "router:1")

    def test_scheduled_only_faults_keep_nominal_routes(self, mesh4,
                                                       transpose4):
        router = create_router("dor")
        routed = route_with_faults(router, mesh4, transpose4, "link:0-1@40")
        assert routed.topology is mesh4
        assert routed.rerouted_flows == ()
        assert routed.schedule.events[0][0] == 40


# ----------------------------------------------------------------------
# mid-run failure accounting in the simulator
# ----------------------------------------------------------------------
class TestMidRunFailures:
    def _simulator(self, mesh, faults, rate=2.0):
        flows = synthetic_by_name("transpose", mesh.num_nodes, demand=25.0)
        router = create_router("dor")
        routed = route_with_faults(router, mesh, flows, faults)
        config = SimulationConfig.test_scale(num_vcs=2, seed=3)
        injection = make_injection_process(flows, rate, seed=3)
        return NetworkSimulator(
            routed.topology, routed.route_set, config, injection,
            phase_boundaries=routed.phase_boundaries,
            fault_schedule=routed.schedule or None,
        )

    def test_flits_lost_are_accounted_not_leaked(self, mesh4):
        simulator = self._simulator(mesh4, "link:5-6@40")
        for stop in (39, 40, 41, 120, 350):
            while simulator.cycle < stop:
                simulator.step()
            violations = simulator.conservation_violations()
            assert not violations, violations
        audit = simulator.flit_audit()
        assert audit["flits_lost_to_faults"] > 0
        assert audit["packets_lost_to_faults"] > 0
        assert audit["packets_dropped_faults"] > 0

    def test_fault_free_run_reports_zero_losses(self, mesh4):
        simulator = self._simulator(mesh4, None)
        for _ in range(200):
            simulator.step()
        audit = simulator.flit_audit()
        assert audit["flits_lost_to_faults"] == 0
        assert audit["packets_lost_to_faults"] == 0
        assert audit["packets_dropped_faults"] == 0

    def test_statistics_carry_fault_counters(self, mesh4):
        simulator = self._simulator(mesh4, "link:5-6@40")
        stats = simulator.run()
        assert stats.flits_lost_to_faults > 0
        assert stats.packets_lost_to_faults > 0
        # round-trips through the cache payload with the new fields
        from repro.runner.cache import statistics_from_dict, statistics_to_dict

        assert statistics_from_dict(statistics_to_dict(stats)) == stats

    def test_legacy_cache_payload_still_loads(self, mesh4):
        """Entries written before the fault counters existed stay readable."""
        from repro.runner.cache import statistics_from_dict, statistics_to_dict

        simulator = self._simulator(mesh4, None)
        stats = simulator.run()
        payload = statistics_to_dict(stats)
        for legacy_missing in ("flits_lost_to_faults",
                               "packets_lost_to_faults",
                               "packets_dropped_faults"):
            payload.pop(legacy_missing, None)
        assert statistics_from_dict(payload) == stats


# ----------------------------------------------------------------------
# cache keys: faulty and fault-free runs must never collide
# ----------------------------------------------------------------------
class TestFaultAwareCacheKeys:
    def _point(self, mesh, faults):
        flows = synthetic_by_name("transpose", mesh.num_nodes, demand=25.0)
        routed = route_with_faults(create_router("dor"), mesh, flows, faults)
        config = SimulationConfig.test_scale(num_vcs=2, seed=3)
        return simulation_cache_key(
            routed.topology, routed.route_set, config, 1.0,
            phase_boundaries=routed.phase_boundaries,
            fault_schedule=routed.schedule or None,
        )

    def test_scheduled_fault_key_differs_both_directions(self, mesh4):
        clean = self._point(mesh4, None)
        faulty = self._point(mesh4, "link:5-6@40")
        # a degraded run must not hit the fault-free entry...
        assert faulty != clean
        # ...and the fault-free run must not hit the degraded entry
        assert clean != faulty
        assert clean == self._point(mesh4, None)  # still deterministic

    def test_static_fault_key_differs_via_topology(self, mesh4):
        assert self._point(mesh4, "link:5-6") != self._point(mesh4, None)

    def test_different_schedules_have_different_keys(self, mesh4):
        assert self._point(mesh4, "link:5-6@40") != \
            self._point(mesh4, "link:5-6@90")

    def test_same_schedule_same_key(self, mesh4):
        assert self._point(mesh4, "link:5-6@40") == \
            self._point(mesh4, "link:5-6@40")


# ----------------------------------------------------------------------
# the study spec's faults axis
# ----------------------------------------------------------------------
class TestStudyFaultsAxis:
    def test_scalar_splits_on_semicolons(self):
        scenario = Scenario.from_dict(
            {"routers": ["dor"], "faults": "none; link:0-1,link:5-6"}, 0)
        assert scenario.faults == ("none", "link:0-1,link:5-6")

    def test_list_keeps_one_point_per_entry(self):
        scenario = Scenario.from_dict(
            {"routers": ["dor"], "faults": ["none", "link:0-1,router:5"]}, 0)
        assert scenario.faults == ("none", "link:0-1,router:5")

    def test_singular_alias(self):
        scenario = Scenario.from_dict(
            {"routers": ["dor"], "fault": "link:0-1"}, 0)
        assert scenario.faults == ("link:0-1",)

    def test_validate_rejects_bad_fault_spec(self):
        scenario = Scenario(name="s", routers=("dor",),
                            faults=("wire:0-1",))
        with pytest.raises(Exception) as excinfo:
            scenario.validate()
        assert "wire:0-1" in str(excinfo.value)

    def test_round_trip_through_dict(self):
        scenario = Scenario.from_dict(
            {"routers": ["dor"], "faults": ["none", "link:0-1@40"]}, 0)
        assert Scenario.from_dict(scenario.to_dict(), 0) == scenario

    def test_grid_builder_accepts_faults(self):
        study = Study("s").grid(routers=["dor"], topologies=["mesh4x4"],
                                faults=["none", "link:0-1"])
        assert study.scenarios[-1].faults == ("none", "link:0-1")


# ----------------------------------------------------------------------
# the comparison matrix's fault axis
# ----------------------------------------------------------------------
def _quick_config() -> ExperimentConfig:
    return dataclasses.replace(
        ExperimentConfig.from_profile("quick"), workers=1, use_cache=False)


QUICK_CRITERIA = SaturationCriteria(min_rate=0.25, max_rate=0.5,
                                    resolution=0.25)


class TestCompareFaultAxis:
    def test_matrix_runs_fault_axis_and_reports_degradation(self):
        matrix = CompareMatrix(config=_quick_config(),
                               criteria=QUICK_CRITERIA)
        rows, _ = matrix.run(["mesh4x4"], ["transpose"], ["dor"],
                             fault_sets=["none", "link:2-6,link:0-1"])
        assert len(rows) == 2
        # labels are canonicalised, so a row is found by the canonical one
        assert rows.distinct("faults") == ["none", "link:0-1,link:2-6"]
        [faulty] = rows.filter(router="dor", faults="link:0-1,link:2-6")
        [retained] = degradation(rows)
        assert retained["faults"] == faulty["faults"]
        assert retained["retained"].endswith("%")

    def test_study_report_grows_faults_column_and_degradation_table(self):
        study = Study("s").grid(
            topologies=["mesh4x4"], routers=["dor"],
            faults=["none", "link:0-1,link:2-6"]).saturate(
            min_rate=0.25, max_rate=0.5, resolution=0.25)
        rendered = study.run(profile="quick", cache=False, workers=1) \
            .render_markdown()
        assert "## Degradation under faults" in rendered
        assert "| faults |" in rendered

    def test_fault_free_report_has_no_faults_column(self):
        study = Study("s").grid(topologies=["mesh4x4"], routers=["dor"]) \
            .saturate(min_rate=0.25, max_rate=0.5, resolution=0.25)
        rendered = study.run(profile="quick", cache=False, workers=1) \
            .render_markdown()
        assert "Degradation under faults" not in rendered
        assert "| faults |" not in rendered

    def test_saturation_search_on_disconnected_flow_is_a_clear_error(self):
        """Regression: a fault set that orphans a source used to surface as
        an opaque KeyError deep inside the saturation search; it must fail
        fast with the unreachable pair spelled out."""
        matrix = CompareMatrix(config=_quick_config(),
                               criteria=QUICK_CRITERIA)
        with pytest.raises(UnroutableFlowError) as excinfo:
            matrix.run(["mesh4x4"], ["transpose"], ["dor"],
                       fault_sets=["router:1"])
        message = str(excinfo.value)
        assert "no path from node 1 to node 4" in message
        assert "unroutable" in message

    def test_unsupported_fault_set_names_router_and_faults(self):
        """Every router must accept-or-declare; the declaration is specific."""
        with pytest.raises((UnroutableFlowError, RoutingError,
                            DeadlockError)):
            route_with_faults(create_router("dor"), Mesh2D(4),
                              synthetic_by_name("transpose", 16,
                                                demand=25.0),
                              "router:1")


# ----------------------------------------------------------------------
# torus coverage: schedules and kernels are topology-agnostic
# ----------------------------------------------------------------------
def test_torus_mid_run_failure_conserves_flits():
    from repro.faults import _bfs_path
    from repro.routing.base import RouteSet

    torus = Torus2D(4)
    flows = synthetic_by_name("bit_complement", 16, demand=25.0)
    routes = RouteSet(torus, flows, algorithm="BFS")
    for flow in flows:
        routes.add_node_path(
            flow, _bfs_path(torus, flow.source, flow.destination))
    schedule = FaultSet.from_spec("link:0-1@60,router:5@120").schedule(torus)
    config = SimulationConfig.test_scale(num_vcs=2, seed=3)
    injection = make_injection_process(flows, 2.0, seed=3)
    simulator = NetworkSimulator(torus, routes, config, injection,
                                 fault_schedule=schedule)
    for stop in (59, 60, 61, 119, 121, 400):
        while simulator.cycle < stop:
            simulator.step()
        violations = simulator.conservation_violations()
        assert not violations, violations
    assert simulator.flit_audit()["flits_lost_to_faults"] > 0
