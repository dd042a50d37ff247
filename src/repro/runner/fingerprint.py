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
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Mapping, Optional

from ..routing.base import RouteSet
from ..simulator.batchsim import LANE_VARIABLE_FIELDS
from ..simulator.config import SimulationConfig
from ..topology.base import Topology
from ..topology.links import physical, virtual_index
from ..traffic.flow import FlowSet

#: Bump when the simulator's semantics change in a way that invalidates
#: previously cached statistics.
CACHE_SCHEMA_VERSION = 1

#: Bump when a router's route selection changes for unchanged inputs (a new
#: default CDG set, a different MILP model) or the stored plan layout does:
#: it is part of every route-plan key and of every stored plan.
PLAN_SCHEMA_VERSION = 1


def _digest(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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


def route_set_fingerprint(route_set: RouteSet) -> Dict[str, object]:
    """Canonical description of every route (channels + static VCs)."""
    routes = {}
    for route in route_set:
        hops = []
        for resource in route.resources:
            channel = physical(resource)
            vc = virtual_index(resource)
            hops.append([channel.src, channel.dst,
                         -1 if vc is None else vc])
        routes[route.flow.name] = hops
    return {"algorithm": route_set.algorithm, "routes": routes}


def config_fingerprint(config: SimulationConfig) -> Dict[str, object]:
    """Every *outcome-determining* field of the configuration, by name.

    The ``backend`` field is deliberately excluded: every registered
    simulator backend is bit-identical (enforced by the differential suite),
    so the kernel choice cannot change the statistics — excluding it keeps
    cache keys backend-invariant, meaning results simulated on one backend
    are warm-cache hits for every other (and entries cached before the
    backend field existed stay valid).
    """
    payload = dataclasses.asdict(config)
    payload.pop("backend", None)
    return payload


def simulation_cache_key(topology: Topology, route_set: RouteSet,
                         config: SimulationConfig, offered_rate: float,
                         phase_boundaries: Optional[Dict[str, int]] = None,
                         fault_schedule=None,
                         ) -> str:
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
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "topology": topology_fingerprint(topology),
        "flows": flow_set_fingerprint(route_set.flow_set),
        "routes": route_set_fingerprint(route_set),
        "config": config_fingerprint(config),
        "offered_rate": float(offered_rate),
        "phase_boundaries": sorted((phase_boundaries or {}).items()),
    }
    if fault_schedule:
        payload["faults"] = fault_schedule.to_payload()
    return _digest(payload)


def batch_group_key(topology: Topology, route_set: RouteSet,
                    config: SimulationConfig,
                    phase_boundaries: Optional[Dict[str, int]] = None,
                    fault_schedule=None,
                    ) -> str:
    """The content-addressed key of one *batchable* family of points.

    Two simulation points may share a lane of one vectorized
    :class:`~repro.simulator.batchsim.BatchSimulator` batch exactly when
    they agree on everything except the offered rate and the lane-variable
    configuration fields (:data:`~repro.simulator.batchsim.LANE_VARIABLE_FIELDS`:
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
    config_payload = {
        field: value for field, value in config_fingerprint(config).items()
        if field not in LANE_VARIABLE_FIELDS
    }
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "topology": topology_fingerprint(topology),
        "flows": flow_set_fingerprint(route_set.flow_set),
        "routes": route_set_fingerprint(route_set),
        "config": config_payload,
        "phase_boundaries": sorted((phase_boundaries or {}).items()),
    }
    if fault_schedule:
        payload["faults"] = fault_schedule.to_payload()
    return _digest(payload)


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
    return _digest({
        "schema": PLAN_SCHEMA_VERSION,
        "topology": topology_fingerprint(topology),
        "flows": flow_set_fingerprint(flow_set),
        "router": router,
        "options": options,
        "faults": faults,
    })
