"""High-level simulation driver: single runs and injection-rate sweeps.

This is the layer the experiment harness talks to: give it a topology, a
flow set, a routing algorithm (or a precomputed route set) and a
configuration, and it produces the throughput / latency numbers that the
figures of Chapter 6 plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..exceptions import SimulationError
from ..faults import plan_on
from ..metrics.statistics import SimulationStatistics, SweepCurve, SweepPoint
from ..routing.base import RouteSet, RoutingAlgorithm
from ..routing.o1turn import O1TurnRouting
from ..routing.romm import ROMMRouting
from ..routing.valiant import ValiantRouting
from ..topology.base import Topology
from ..topology.links import physical
from ..traffic.flow import FlowSet
from .backends import BATCH_BACKEND, backend_spec, create_simulator
from .config import SimulationConfig
from .injection import make_injection_process


def phase_boundaries_from_intermediates(route_set: RouteSet,
                                        intermediates: Dict[str, int]
                                        ) -> Dict[str, int]:
    """Hop index at which each two-phase route reaches its intermediate node.

    ROMM and Valiant are deadlock free with two virtual channels because
    phase one and phase two run on disjoint virtual networks; the simulator
    enforces that split using these boundaries.
    """
    boundaries: Dict[str, int] = {}
    for route in route_set:
        pivot = intermediates.get(route.flow.name)
        if pivot is None:
            continue
        if pivot in (route.flow.source, route.flow.destination):
            continue
        for index, resource in enumerate(route.resources):
            if physical(resource).dst == pivot:
                boundaries[route.flow.name] = index + 1
                break
    return boundaries


def phase_boundaries_for(algorithm: RoutingAlgorithm,
                         route_set: RouteSet) -> Dict[str, int]:
    """Per-flow virtual-network split for algorithms that require one.

    ROMM and Valiant switch virtual networks at their per-flow intermediate
    node.  O1TURN keeps each flow on a single dimension order for its whole
    route, so its XY flows live entirely on the first VC class (boundary =
    route length) and its YX flows entirely on the second (boundary = 0) —
    the disjoint virtual networks its deadlock-freedom argument assumes.
    """
    if isinstance(algorithm, (ROMMRouting, ValiantRouting)):
        return phase_boundaries_from_intermediates(route_set, algorithm.intermediates)
    if isinstance(algorithm, O1TurnRouting):
        boundaries: Dict[str, int] = {}
        for route in route_set:
            order = algorithm.assignments.get(route.flow.name)
            if order == "yx":
                boundaries[route.flow.name] = 0
            elif order == "xy":
                boundaries[route.flow.name] = route.hop_count
        return boundaries
    return {}


def simulate_route_set(topology: Topology, route_set: RouteSet,
                       config: SimulationConfig, offered_rate: float,
                       phase_boundaries: Optional[Dict[str, int]] = None,
                       backend: Optional[str] = None,
                       fault_schedule=None,
                       ) -> SimulationStatistics:
    """Simulate one route set at one offered injection rate.

    The kernel executing the run comes from the explicit *backend*
    override, else ``config.backend``, else ``fast``; every registered
    backend is bit-identical, so the choice affects wall-clock time only.
    A non-empty *fault_schedule* arms cycle-stamped link failures (see
    :mod:`repro.faults`).
    """
    if not route_set.is_complete():
        missing = [flow.name for flow in route_set.missing_flows()]
        raise SimulationError(f"route set is missing routes for flows: {missing}")
    injection = make_injection_process(
        route_set.flow_set, offered_rate,
        variation_fraction=config.bandwidth_variation,
        mean_dwell_cycles=config.variation_dwell_cycles,
        seed=config.seed,
    )
    simulator = create_simulator(
        topology, route_set, config, injection,
        phase_boundaries=phase_boundaries, backend=backend,
        fault_schedule=fault_schedule,
    )
    return simulator.run()


def simulate_route_set_batch(topology: Topology, route_set: RouteSet,
                             points: Sequence[tuple],
                             phase_boundaries: Optional[Dict[str, int]] = None,
                             backend: Optional[str] = None,
                             fault_schedule=None,
                             ) -> List[SimulationStatistics]:
    """Simulate many points of one route set in a single batched call.

    *points* is a sequence of ``(config, offered_rate)`` pairs sharing the
    same topology, routes and phase boundaries; configurations may differ
    only in the lane-variable fields (VC count, seed, backend and the
    variation knobs — see
    :data:`repro.simulator.config.LANE_VARIABLE_FIELDS`).  Results are
    returned in point order and are bit-identical to per-point
    :func:`simulate_route_set` calls, which is what lets the runner batch
    cache misses without touching per-point cache keys.

    The backend (resolved from *backend*, else the first configuration,
    else ``batch``) must advertise ``supports_batching``; a shared
    non-empty *fault_schedule* applies to every lane, fail-stop masked
    lane-locally.
    """
    if not points:
        raise SimulationError("batch simulation needs at least one point")
    if not route_set.is_complete():
        missing = [flow.name for flow in route_set.missing_flows()]
        raise SimulationError(f"route set is missing routes for flows: {missing}")
    configs = [config for config, _ in points]
    spec = backend_spec(backend or configs[0].backend or BATCH_BACKEND)
    if not spec.supports_batching:
        raise SimulationError(
            f"simulator backend {spec.name!r} does not support batched "
            f"simulation; use simulate_route_set per point or a batching "
            f"backend"
        )
    injections = [
        make_injection_process(
            route_set.flow_set, rate,
            variation_fraction=config.bandwidth_variation,
            mean_dwell_cycles=config.variation_dwell_cycles,
            seed=config.seed,
        )
        for config, rate in points
    ]
    fault_schedules = None
    if fault_schedule:
        fault_schedules = [fault_schedule] * len(configs)
    simulator = spec.factory.for_lanes(
        topology, route_set, configs, injections,
        phase_boundaries=phase_boundaries, fault_schedules=fault_schedules,
    )
    return simulator.run_all()


@dataclass
class SweepResult:
    """The outcome of a full injection-rate sweep for one algorithm."""

    curve: SweepCurve
    statistics: List[SimulationStatistics]
    route_set: RouteSet

    @property
    def saturation_throughput(self) -> float:
        return self.curve.saturation_throughput()


def sweep_injection_rates(topology: Topology, route_set: RouteSet,
                          config: SimulationConfig,
                          offered_rates: Sequence[float],
                          workload: str = "",
                          phase_boundaries: Optional[Dict[str, int]] = None,
                          ) -> SweepResult:
    """Simulate a route set across a range of offered injection rates.

    Every point re-runs the simulator from a cold start, exactly as the
    paper does ("for each simulation, the network is warmed up ... before
    being simulated ... to collect statistics").
    """
    if not offered_rates:
        raise SimulationError("offered_rates must contain at least one rate")
    curve = SweepCurve(algorithm=route_set.algorithm or "routes",
                       workload=workload or route_set.flow_set.name)
    collected: List[SimulationStatistics] = []
    for rate in offered_rates:
        stats = simulate_route_set(
            topology, route_set, config, rate,
            phase_boundaries=phase_boundaries,
        )
        collected.append(stats)
        curve.add_point(SweepPoint(
            offered_rate=rate,
            throughput=stats.throughput,
            average_latency=stats.average_latency,
            delivery_ratio=stats.delivery_ratio,
        ))
    return SweepResult(curve=curve, statistics=collected, route_set=route_set)


def sweep_algorithm(algorithm: RoutingAlgorithm, topology: Topology,
                    flow_set: FlowSet, config: SimulationConfig,
                    offered_rates: Sequence[float],
                    workload: str = "") -> SweepResult:
    """Compute routes with *algorithm* and sweep the offered injection rate."""
    plan = plan_on(algorithm, topology, flow_set)
    return sweep_injection_rates(
        topology, plan.route_set, config, offered_rates,
        workload=workload, phase_boundaries=plan.phase_boundaries,
    )


def compare_algorithms(algorithms: Iterable[RoutingAlgorithm],
                       topology: Topology, flow_set: FlowSet,
                       config: SimulationConfig,
                       offered_rates: Sequence[float],
                       workload: str = "") -> Dict[str, SweepResult]:
    """Sweep several algorithms on the same workload (one figure's curves)."""
    results: Dict[str, SweepResult] = {}
    for algorithm in algorithms:
        results[algorithm.name] = sweep_algorithm(
            algorithm, topology, flow_set, config, offered_rates,
            workload=workload,
        )
    return results
