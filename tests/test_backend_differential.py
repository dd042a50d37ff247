"""Differential backend-equivalence suite.

Every simulator backend must be **bit-identical** to the ``reference``
kernel: field-for-field identical :class:`SimulationStatistics` (per-flow
latencies and delivery counts included), identical ``flit_audit`` ledgers
and occupancy snapshots at arbitrary stop cycles, and identical deadlock
verdicts.  This is what licenses the backend-invariant cache keys
(:mod:`repro.runner.fingerprint`): a cached result is valid for every
backend precisely because no backend can produce a different one.

The matrix covered here:

* every registered routing algorithm on a mesh (synthetic traffic);
* a torus with hand-built shortest-path routes (no registered router
  routes tori yet, but the simulator is routing-agnostic — the kernels
  must agree on any valid route set);
* an AppGraph workload from the :mod:`repro.workloads` registry;
* degraded topologies, statically and under mid-run link failures.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import pytest

from repro.faults import route_with_faults
from repro.routing.base import RouteSet
from repro.routing.registry import available_routers, create_router
from repro.simulator import (
    BatchSimulator,
    FastSimulator,
    NetworkSimulator,
    SimulationConfig,
    available_backends,
    backend_spec,
    make_injection_process,
    simulate_route_set,
    simulate_route_set_batch,
)
from repro.simulator.batchsim import np as _numpy
from repro.simulator.simulation import phase_boundaries_for
from repro.topology import Mesh2D, Ring, Torus2D
from repro.traffic import FlowSet, synthetic_by_name
from repro.workloads.registry import workload_flow_set

needs_numpy = pytest.mark.skipif(
    _numpy is None, reason="the batch backend requires numpy")

DIFF_CONFIG = SimulationConfig(
    num_vcs=2, buffer_depth=4, packet_size_flits=4,
    warmup_cycles=100, measurement_cycles=400,
)


def runnable_backends():
    """Every registered backend that can run in this environment.

    Without numpy the ``batch`` entry still registers (so ``list`` can
    document it) but cannot simulate; the scalar matrix skips it and the
    dedicated batch tests skip themselves via :data:`needs_numpy`.
    """
    return [
        backend for backend in available_backends()
        if _numpy is not None or not backend_spec(backend).supports_batching
    ]


def both_backends(topology, route_set, config, rate, boundaries=None,
                  fault_schedule=None):
    """The statistics of one point on every registered backend, by name."""
    return {
        backend: simulate_route_set(topology, route_set, config, rate,
                                    phase_boundaries=boundaries,
                                    backend=backend,
                                    fault_schedule=fault_schedule)
        for backend in runnable_backends()
    }


def assert_identical(by_backend):
    reference = by_backend["reference"]
    for backend, stats in by_backend.items():
        assert stats == reference, (
            f"backend {backend!r} diverged from reference: "
            f"{stats} != {reference}"
        )
        # field-for-field, dictionaries included
        assert stats.per_flow_latency == reference.per_flow_latency
        assert stats.per_flow_delivered == reference.per_flow_delivered


def shortest_path_routes(topology, flow_set: FlowSet) -> RouteSet:
    """BFS shortest-path routes; works on any topology (tori included)."""
    adjacency = {}
    for channel in topology.channels:
        adjacency.setdefault(channel.src, []).append(channel.dst)
    route_set = RouteSet(topology, flow_set, algorithm="BFS")
    for flow in flow_set:
        parents = {flow.source: None}
        frontier = deque([flow.source])
        while frontier:
            node = frontier.popleft()
            if node == flow.destination:
                break
            for neighbour in adjacency[node]:
                if neighbour not in parents:
                    parents[neighbour] = node
                    frontier.append(neighbour)
        path = [flow.destination]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])
        route_set.add_node_path(flow, list(reversed(path)))
    return route_set


class TestEveryRouterOnAMesh:
    @pytest.mark.parametrize("router_name", available_routers())
    @pytest.mark.parametrize("rate", [0.5, 4.0])
    def test_synthetic_transpose(self, mesh4, router_name, rate):
        flows = synthetic_by_name("transpose", 16, demand=25.0)
        router = create_router(router_name, seed=0, milp_time_limit=10.0)
        routes = router.compute_routes(mesh4, flows)
        boundaries = phase_boundaries_for(router, routes)
        assert_identical(
            both_backends(mesh4, routes, DIFF_CONFIG, rate, boundaries))

    def test_single_vc_deadlock_verdict_matches(self, mesh4):
        """ROMM on one VC wedges; every backend must report it identically."""
        flows = synthetic_by_name("transpose", 16, demand=25.0)
        router = create_router("romm", seed=0)
        routes = router.compute_routes(mesh4, flows)
        boundaries = phase_boundaries_for(router, routes)
        config = SimulationConfig(
            num_vcs=1, buffer_depth=4, packet_size_flits=4,
            warmup_cycles=100, measurement_cycles=2000,
        )
        by_backend = both_backends(mesh4, routes, config, 6.0, boundaries)
        assert_identical(by_backend)
        # the deadlock cut-off also truncates the cycle count identically
        cycles = {stats.cycles for stats in by_backend.values()}
        assert len(cycles) == 1


class TestTorusAndWorkloads:
    @pytest.mark.parametrize("rate", [0.5, 3.0])
    def test_torus_shortest_path_routes(self, rate):
        torus = Torus2D(4)
        flows = synthetic_by_name("bit_complement", 16, demand=25.0)
        routes = shortest_path_routes(torus, flows)
        assert_identical(both_backends(torus, routes, DIFF_CONFIG, rate))

    @pytest.mark.parametrize("topology_cls", [Mesh2D, Torus2D])
    def test_appgraph_workload(self, topology_cls):
        topology = topology_cls(4)
        flows = workload_flow_set("decoder-pipeline", topology, seed=0)
        routes = (create_router("dor").compute_routes(topology, flows)
                  if topology_cls is Mesh2D
                  else shortest_path_routes(topology, flows))
        assert_identical(both_backends(topology, routes, DIFF_CONFIG, 1.5))


class TestDegradedTopologies:
    """Faults are part of the bit-identity contract, not an exception to it.

    A degraded topology changes channel ids, arbitration scan order and
    (under mid-run failures) the loss accounting — all of it must stay
    field-for-field identical across kernels, or the backend-invariant
    cache keys stop being sound for fault studies.
    """

    @pytest.mark.parametrize("router_name",
                             ["dor", "o1turn", "bsor-dijkstra"])
    @pytest.mark.parametrize("rate", [0.5, 3.0])
    def test_static_degraded_mesh(self, mesh4, router_name, rate):
        flows = synthetic_by_name("transpose", 16, demand=25.0)
        router = create_router(router_name, seed=0)
        routed = route_with_faults(router, mesh4, flows, "link:5-6,link:9>10")
        assert_identical(both_backends(
            routed.topology, routed.route_set, DIFF_CONFIG, rate,
            routed.phase_boundaries))

    @pytest.mark.parametrize("router_name", ["dor", "bsor-dijkstra"])
    def test_mid_run_link_failure(self, mesh4, router_name):
        """Flits in flight on a dying link are lost identically."""
        flows = synthetic_by_name("transpose", 16, demand=25.0)
        router = create_router(router_name, seed=0)
        routed = route_with_faults(router, mesh4, flows,
                                   "link:5-6@150,link:1-2@300")
        by_backend = both_backends(
            routed.topology, routed.route_set, DIFF_CONFIG, 2.0,
            routed.phase_boundaries, fault_schedule=routed.schedule)
        assert_identical(by_backend)
        reference = by_backend["reference"]
        assert reference.flits_lost_to_faults > 0
        assert reference.packets_lost_to_faults > 0

    def test_static_and_scheduled_mix(self, mesh4):
        """A statically degraded mesh that keeps degrading mid-run."""
        flows = synthetic_by_name("shuffle", 16, demand=25.0)
        routed = route_with_faults(create_router("dor", seed=0), mesh4,
                                   flows, "link:0-1,link:5-6@200")
        assert_identical(both_backends(
            routed.topology, routed.route_set, DIFF_CONFIG, 2.0,
            routed.phase_boundaries, fault_schedule=routed.schedule))


def mixed_lanes(base=DIFF_CONFIG):
    """Three lanes varying every lane-variable axis: VC count, seed, rate."""
    return [
        (base, 1.0),
        (dataclasses.replace(base, num_vcs=4, seed=3), 3.0),
        (dataclasses.replace(base, seed=9), 6.0),
    ]


def assert_lanes_match_reference(topology, routes, points, boundaries=None,
                                 fault_schedule=None):
    """Every lane of one batched call equals its scalar reference run."""
    batch = simulate_route_set_batch(
        topology, routes, points, phase_boundaries=boundaries,
        backend="batch", fault_schedule=fault_schedule)
    assert len(batch) == len(points)
    for lane, (config, rate) in enumerate(points):
        reference = simulate_route_set(
            topology, routes, config, rate, phase_boundaries=boundaries,
            backend="reference", fault_schedule=fault_schedule)
        assert batch[lane] == reference, (
            f"batch lane {lane} diverged from reference: "
            f"{batch[lane]} != {reference}"
        )
        assert batch[lane].per_flow_latency == reference.per_flow_latency
        assert batch[lane].per_flow_delivered == reference.per_flow_delivered
    return batch


@needs_numpy
class TestBatchLanes:
    """Multi-point batches are lane-for-lane identical to scalar runs.

    The scalar matrix above already proves the one-lane ``batch`` kernel
    bit-identical; these tests prove the *batched* axis — lanes with
    different VC counts, seeds and offered rates sharing one state tensor
    never bleed into each other, on clean, degraded and faulted networks.
    """

    @pytest.mark.parametrize("router_name", available_routers())
    def test_every_router_on_a_mesh(self, mesh4, router_name):
        flows = synthetic_by_name("transpose", 16, demand=25.0)
        router = create_router(router_name, seed=0, milp_time_limit=10.0)
        routes = router.compute_routes(mesh4, flows)
        boundaries = phase_boundaries_for(router, routes)
        assert_lanes_match_reference(mesh4, routes, mixed_lanes(), boundaries)

    def test_torus_shortest_path_lanes(self):
        torus = Torus2D(4)
        flows = synthetic_by_name("bit_complement", 16, demand=25.0)
        routes = shortest_path_routes(torus, flows)
        points = mixed_lanes() + [
            (dataclasses.replace(DIFF_CONFIG, num_vcs=1, seed=5), 8.0),
        ]
        assert_lanes_match_reference(torus, routes, points)

    def test_deadlocking_lane_freezes_alone(self):
        """A saturated lane on cyclic clockwise ring routes wedges; its
        watchdog freezes that lane only, and the surviving lanes keep
        stepping to the full cycle count, all lanes bit-identical."""
        ring = Ring(4)
        flows = FlowSet.from_tuples([(0, 2, 25.0), (1, 3, 25.0),
                                     (2, 0, 25.0), (3, 1, 25.0)])
        routes = RouteSet(ring, flows, algorithm="cw")
        for flow in flows:
            routes.add_node_path(flow, [flow.source,
                                        (flow.source + 1) % 4,
                                        flow.destination])
        points = [
            (DIFF_CONFIG, 0.2),
            (dataclasses.replace(DIFF_CONFIG, num_vcs=1), 8.0),
            (dataclasses.replace(DIFF_CONFIG, num_vcs=4, seed=3), 0.2),
        ]
        batch = assert_lanes_match_reference(ring, routes, points)
        # the frozen lane's truncated cycle count is per lane, not global
        cycles = [stats.cycles for stats in batch]
        assert cycles[1] < cycles[0] == cycles[2]

    @pytest.mark.parametrize("topology_cls", [Mesh2D, Torus2D])
    def test_appgraph_workload(self, topology_cls):
        topology = topology_cls(4)
        flows = workload_flow_set("decoder-pipeline", topology, seed=0)
        routes = (create_router("dor").compute_routes(topology, flows)
                  if topology_cls is Mesh2D
                  else shortest_path_routes(topology, flows))
        assert_lanes_match_reference(topology, routes, mixed_lanes())

    def test_degraded_mesh_with_scheduled_faults(self, mesh4):
        """Mid-run link deaths hit every lane at the same cycle, and each
        lane loses exactly the flits its own traffic had in flight."""
        flows = synthetic_by_name("transpose", 16, demand=25.0)
        routed = route_with_faults(create_router("dor", seed=0), mesh4,
                                   flows, "link:0-1,link:5-6@200")
        batch = assert_lanes_match_reference(
            routed.topology, routed.route_set, mixed_lanes(),
            routed.phase_boundaries, fault_schedule=routed.schedule)
        assert any(stats.flits_lost_to_faults > 0 for stats in batch)

    def test_modulated_injection_lanes(self, mesh4):
        """Lanes whose flows swing between demand levels draw their
        injections through the scalar process, not the Bernoulli fast
        path, and still equal their reference and fast twins."""
        flows = synthetic_by_name("transpose", 16, demand=25.0)
        routes = create_router("dor").compute_routes(mesh4, flows)
        points = [
            (DIFF_CONFIG.with_variation(0.5), 2.0),
            (dataclasses.replace(DIFF_CONFIG.with_variation(1.0), seed=3,
                                 variation_dwell_cycles=50), 1.0),
            (DIFF_CONFIG, 2.0),
        ]
        batch = assert_lanes_match_reference(mesh4, routes, points)
        for lane, (config, rate) in enumerate(points):
            fast = simulate_route_set(mesh4, routes, config, rate,
                                      backend="fast")
            assert batch[lane] == fast
            assert batch[lane].per_flow_latency == fast.per_flow_latency
        # the modulation is live: same seed and rate, other statistics
        assert batch[0] != batch[2]

    def test_stepwise_lane_audits(self, mesh4):
        """Each lane's ledgers equal its scalar twin's at every probed
        cycle — mid-flight state, not just final statistics."""
        flows = synthetic_by_name("shuffle", 16, demand=25.0)
        router = create_router("bsor-dijkstra", seed=0)
        routes = router.compute_routes(mesh4, flows)
        boundaries = phase_boundaries_for(router, routes)
        points = mixed_lanes()
        configs = [config for config, _ in points]
        injections = [
            make_injection_process(routes.flow_set, rate, seed=config.seed)
            for config, rate in points
        ]
        batch = BatchSimulator.for_lanes(
            mesh4, routes, configs, injections,
            phase_boundaries=boundaries)
        scalars = []
        for config, rate in points:
            injection = make_injection_process(
                routes.flow_set, rate, seed=config.seed)
            scalars.append(NetworkSimulator(
                mesh4, routes, config, injection,
                phase_boundaries=boundaries))
        for stop in (1, 17, 100, 163, 350):
            while batch.cycle < stop:
                batch.step()
            for lane, scalar in enumerate(scalars):
                while scalar.cycle < stop:
                    scalar.step()
                assert batch.flit_audit(lane) == scalar.flit_audit()
                assert (batch.occupancy_snapshot(lane)
                        == scalar.occupancy_snapshot())
                assert batch.statistics(lane) == scalar.statistics()
                assert batch.lane_in_flight(lane) == scalar.in_flight_flits
                assert batch.conservation_violations(lane) == []


class TestAuditsAtArbitraryStopCycles:
    @pytest.mark.parametrize("router_name", ["dor", "o1turn", "bsor-dijkstra"])
    def test_stepwise_audit_and_occupancy(self, mesh4, router_name):
        """The ledgers agree at every probed cycle, not just at the end."""
        flows = synthetic_by_name("shuffle", 16, demand=25.0)
        self._stepwise_check(mesh4, flows, router_name, rate=3.0)

    @pytest.mark.parametrize("workload", ["decoder-pipeline", "hotspot-server"])
    def test_stepwise_multi_flow_nodes(self, mesh4, workload):
        """Workloads with several flows per source node exercise the
        injection round robin, the shared-first-channel contention and the
        fill worklist on arrival-free cycles — the paths a synthetic
        one-flow-per-node pattern never touches (regression: the fast
        kernel once skipped pending source-queue refills on cycles with no
        new arrivals, which only multi-flow workloads made visible)."""
        flows = workload_flow_set(workload, mesh4, seed=0)
        self._stepwise_check(mesh4, flows, "dor", rate=2.0)

    def _stepwise_check(self, topology, flows, router_name, rate):
        router = create_router(router_name, seed=0)
        routes = router.compute_routes(topology, flows)
        boundaries = phase_boundaries_for(router, routes)
        kernels = []
        for cls in (NetworkSimulator, FastSimulator):
            injection = make_injection_process(
                routes.flow_set, rate, seed=DIFF_CONFIG.seed)
            kernels.append(cls(topology, routes, DIFF_CONFIG, injection,
                               phase_boundaries=boundaries))
        reference, fast = kernels
        for stop in (1, 17, 100, 163, 350):
            while reference.cycle < stop:
                reference.step()
            while fast.cycle < stop:
                fast.step()
            assert fast.flit_audit() == reference.flit_audit()
            assert fast.occupancy_snapshot() == reference.occupancy_snapshot()
            assert fast.statistics() == reference.statistics()
            assert fast.in_flight_flits == reference.in_flight_flits
            assert not reference.conservation_violations()
            assert not fast.conservation_violations()
