"""Stable content fingerprints for simulation inputs.

The result cache is content addressed: a simulation point is identified by a
SHA-256 digest of everything that determines its outcome — the topology's
channel inventory, the flow set (names, endpoints, demands), the route of
every flow (including static VC allocation), every field of the
:class:`~repro.simulator.config.SimulationConfig`, the phase boundaries and
the offered injection rate.  Two processes that build the same experiment
from the same configuration therefore compute the same key, which is what
lets worker processes share one cache directory and lets a re-plotted figure
skip simulation entirely.

The fingerprint is computed over a canonical JSON rendering (sorted keys,
no whitespace) of plain lists / dicts / scalars, never over ``hash()`` or
``repr()`` of live objects, so it is independent of ``PYTHONHASHSEED``,
process identity and dict insertion order.  Flow and channel *order* is
preserved, not sorted away: both are genuine simulation inputs (flows share
one injection RNG stream drawn in flow-set order; channel ids and
arbitration order follow the topology's channel enumeration), so two
experiments that differ only in ordering must not collide on one key.

Canonical JSON of a mapping is its members' canonical JSON joined in
sorted-key order, so a key is *spliced* from one fragment per input instead
of serialising the whole payload per point.  The big fragments are rendered
once and kept: a :class:`~repro.topology.base.Topology`, a
:class:`~repro.traffic.flow.FlowSet` and a
:class:`~repro.routing.base.RouteSet` carry their own (every mutator of
theirs drops it).  The small ones — the configuration, the failure
schedule, the phase boundaries — are rendered per key.  The digests equal
the whole-payload construction's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Dict, List, Mapping, Optional

from ..routing.base import RouteSet
from ..simulator.config import LANE_VARIABLE_FIELDS, SimulationConfig
from ..topology.base import Topology
from ..topology.links import physical, virtual_index
from ..traffic.flow import FlowSet

#: Bump when the simulator's semantics change in a way that invalidates
#: previously cached statistics.
CACHE_SCHEMA_VERSION = 1

#: Bump when a router's route selection changes for unchanged inputs (a new
#: default CDG set, a different MILP model) or the stored plan layout does:
#: it is part of every route-plan key and of every stored plan.
#: Version 2: every stored plan carries the topological ranks that certify
#: its route set deadlock free.
PLAN_SCHEMA_VERSION = 2


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _kept_fragment(render: Callable[..., object], source) -> str:
    """Canonical JSON of ``render(source)``, kept on *source* — a topology,
    flow set or route set, whose mutators drop it — until it changes."""
    text = source._key_fragment
    if text is None:
        text = source._key_fragment = _canonical(render(source))
    return text


def _splice(members: Mapping[str, str]) -> str:
    """SHA-256 of ``_canonical`` of a mapping, given each member's
    canonical JSON: the members joined in sorted-name order."""
    text = ",".join(f'"{name}":{members[name]}' for name in sorted(members))
    return _sha256(f"{{{text}}}")


def topology_fingerprint(topology: Topology) -> Dict[str, object]:
    """Canonical description of a topology: type, nodes and channels.

    Channels keep the topology's enumeration order — it determines the
    simulator's channel ids and arbitration scan order.
    """
    return {
        "type": type(topology).__name__,
        "nodes": sorted(topology.nodes),
        "channels": [(channel.src, channel.dst)
                     for channel in topology.channels],
    }


def flow_set_fingerprint(flow_set: FlowSet) -> list:
    """Canonical description of a flow set: name, endpoints, demand.

    Flow order is preserved — flows draw from one shared injection RNG
    stream in flow-set order (and BSOR's selectors route them in an order
    derived from it), so reordered flow sets are different simulations
    and different plans.
    """
    return [
        (flow.name, flow.source, flow.destination, float(flow.demand))
        for flow in flow_set
    ]


def resource_hop(resource) -> List[int]:
    """``[src, dst, vc]`` of one route hop; ``vc`` is -1 for a physical
    channel (dynamic VC allocation)."""
    channel = physical(resource)
    vc = virtual_index(resource)
    return [channel.src, channel.dst, -1 if vc is None else vc]


def route_set_fingerprint(route_set: RouteSet) -> Dict[str, object]:
    """Canonical description of every route (channels + static VCs)."""
    return {"algorithm": route_set.algorithm,
            "routes": {route.flow.name: [resource_hop(resource)
                                         for resource in route.resources]
                       for route in route_set}}


#: The :class:`SimulationConfig` fields a result depends on: all but one.
_OUTCOME_FIELDS = frozenset(field.name for field in
                            dataclasses.fields(SimulationConfig)) - {"backend"}


def config_fingerprint(config: SimulationConfig) -> Dict[str, object]:
    """Every *outcome-determining* field of the configuration, by name.

    The ``backend`` field is deliberately excluded: every registered
    simulator backend is bit-identical (enforced by the differential suite),
    so the kernel choice cannot change the statistics — excluding it keeps
    cache keys backend-invariant, meaning results simulated on one backend
    are warm-cache hits for every other (and entries cached before the
    backend field existed stay valid).
    """
    return {name: value for name, value in vars(config).items()
            if name in _OUTCOME_FIELDS}


def _group_config(config: SimulationConfig) -> Dict[str, object]:
    return {field: value for field, value in config_fingerprint(config).items()
            if field not in LANE_VARIABLE_FIELDS}


def _spliced_key(render_config: Callable, topology: Topology,
                 route_set: RouteSet, config: SimulationConfig,
                 phase_boundaries, fault_schedule,
                 offered_rate: Optional[float] = None) -> str:
    """SHA-256 of ``_canonical`` of the mapping of the member names below to
    their payloads, spliced from the members' fragments."""
    members = {
        "config": _canonical(render_config(config)),
        "flows": _kept_fragment(flow_set_fingerprint, route_set.flow_set),
        "phase_boundaries": _canonical(
            sorted((phase_boundaries or {}).items())),
        "routes": _kept_fragment(route_set_fingerprint, route_set),
        "schema": _canonical(CACHE_SCHEMA_VERSION),
        "topology": _kept_fragment(topology_fingerprint, topology),
    }
    if fault_schedule:
        members["faults"] = _canonical(fault_schedule.to_payload())
    if offered_rate is not None:
        members["offered_rate"] = _canonical(float(offered_rate))
    return _splice(members)


def simulation_cache_key(topology: Topology, route_set: RouteSet,
                         config: SimulationConfig, offered_rate: float,
                         phase_boundaries: Optional[Dict[str, int]] = None,
                         fault_schedule=None) -> str:
    """The content-addressed key of one simulation point.

    Any change to any input — a different channel, demand, route hop, VC
    count, warm-up length, seed, variation fraction or offered rate —
    produces a different key, so stale cache entries can never be returned
    for a modified experiment.

    Faults are covered from both sides: *static* faults (failed before
    cycle 0) reach the simulator as a degraded topology, whose channel
    inventory already distinguishes the key; a *scheduled*
    :class:`~repro.faults.FailureSchedule` of mid-run failures is an extra
    simulation input, so its canonical payload joins the key whenever it is
    non-empty.  An empty or ``None`` schedule adds nothing — keys from
    before the fault model existed stay valid, and a degraded run can never
    collide with its fault-free twin in either direction.

    The points of a sweep share almost every input: the topology, flow set
    and route set render their fragments once and keep them until they are
    mutated.
    """
    return _spliced_key(config_fingerprint, topology, route_set, config,
                        phase_boundaries, fault_schedule, offered_rate)


def batch_group_key(topology: Topology, route_set: RouteSet,
                    config: SimulationConfig,
                    phase_boundaries: Optional[Dict[str, int]] = None,
                    fault_schedule=None) -> str:
    """The content-addressed key of one *batchable* family of points.

    Two simulation points may share a lane of one vectorized
    :class:`~repro.simulator.batchsim.BatchSimulator` batch exactly when
    they agree on everything except the offered rate and the lane-variable
    configuration fields (:data:`~repro.simulator.config.LANE_VARIABLE_FIELDS`:
    VC count, seed, backend and the bandwidth-variation knobs).  This key
    digests precisely that shared remainder — the same canonical payload as
    :func:`simulation_cache_key` minus ``offered_rate`` and the
    lane-variable config fields — so the runner can group pending
    cache-miss points by equal keys without ever comparing live objects.
    Like every fingerprint here it is ``PYTHONHASHSEED``-independent, which
    keeps the grouping (and therefore lane order and results) deterministic
    across processes and worker counts.  Per-point *cache* keys are not
    affected: batched points are still stored under their unchanged
    :func:`simulation_cache_key`.
    """
    return _spliced_key(_group_config, topology, route_set, config,
                        phase_boundaries, fault_schedule)


def route_plan_key(topology: Topology, flow_set: FlowSet, router: str,
                   options: Mapping[str, object], faults: str) -> str:
    """The content-addressed key of one route plan.

    A plan is a pure function of the *intact* topology, the flow set (in
    order), the router's registry slug, the options its factory actually
    receives (``options``, JSON-able: CDG strategies by name) and the fault
    set's canonical label — so that is the key.  Nothing about how the plan
    will be simulated (workers, backend, execution, cache directories,
    the simulation configuration) takes part, and neither do numpy / scipy
    versions: a cached optimal plan stays optimal under any solver build.
    """
    return _splice({
        "schema": _canonical(PLAN_SCHEMA_VERSION),
        "topology": _kept_fragment(topology_fingerprint, topology),
        "flows": _kept_fragment(flow_set_fingerprint, flow_set),
        "router": _canonical(router),
        "options": _canonical(options),
        "faults": _canonical(faults),
    })
