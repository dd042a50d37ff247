"""Deadlock-freedom verification for route sets.

Lemma 1 of the paper (Dally & Seitz 1987, Dally & Aoki 1993): a routing
algorithm is deadlock free if and only if the set of routes it produces forms
an acyclic channel dependence graph.  This module checks that condition for
an arbitrary :class:`~repro.routing.base.RouteSet`:

* BSOR route sets must always pass (they conform to an acyclic CDG by
  construction);
* DOR route sets always pass on meshes (dimension order admits no cycles);
* ROMM / Valiant route sets may fail with a single virtual channel — the
  paper gives them two virtual channels in the simulations precisely to
  guarantee deadlock freedom, and the checker models that by analysing each
  phase of a two-phase route in its own virtual network.

A topological order of an acyclic induced CDG is a proof of the lemma's
condition that is cheap to check: :func:`analyze_virtual_networks` returns
one (:attr:`DeadlockReport.ranks`), and :func:`certifies` checks such ranks
against a route set in one pass over its hops, without building a graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cdg.cdg import ChannelDependenceGraph, cdg_from_routes
from ..exceptions import CyclicCDGError, DeadlockError
from ..topology.links import physical
from .base import Resource, Route, RouteSet

#: Per virtual network, the rank of every resource that network uses.
Ranks = Tuple[Dict[Resource, int], ...]


@dataclass
class DeadlockReport:
    """The result of a deadlock-freedom analysis.

    ``ranks`` is the proof of a deadlock-free verdict where the analysis
    produced one (:func:`analyze_virtual_networks`): per virtual network, a
    resource's position in a topological order of that network's induced
    CDG.  :func:`certifies` checks it.
    """

    deadlock_free: bool
    cycle: Optional[List[Tuple]] = None
    induced_cdg: Optional[ChannelDependenceGraph] = None
    detail: str = ""
    ranks: Optional[Ranks] = None

    def __bool__(self) -> bool:
        return self.deadlock_free

    def describe(self) -> str:
        if self.deadlock_free:
            return f"deadlock free ({self.detail or 'induced CDG is acyclic'})"
        pretty = ""
        if self.cycle:
            pretty = " cycle: " + " -> ".join(str(edge[0]) for edge in self.cycle)
        return f"NOT deadlock free ({self.detail}).{pretty}"


def induced_cdg(route_set: RouteSet) -> ChannelDependenceGraph:
    """The channel dependence graph induced by a route set's routes."""
    return cdg_from_routes(
        route_set.topology,
        [route.resources for route in route_set],
        name=f"induced-{route_set.algorithm or 'routes'}",
    )


def analyze_route_set(route_set: RouteSet) -> DeadlockReport:
    """Analyse a route set and report whether it permits deadlock."""
    cdg = induced_cdg(route_set)
    cycle = cdg.find_cycle()
    if cycle is None:
        return DeadlockReport(
            deadlock_free=True,
            induced_cdg=cdg,
            detail=f"{cdg.num_vertices} used resources, {cdg.num_edges} dependences",
        )
    return DeadlockReport(
        deadlock_free=False,
        cycle=cycle,
        induced_cdg=cdg,
        detail=f"induced CDG of {route_set.algorithm or 'routes'} has a cycle",
    )


def check_deadlock_freedom(route_set: RouteSet) -> DeadlockReport:
    """Like :func:`analyze_route_set` but raises on a deadlock-prone set."""
    report = analyze_route_set(route_set)
    if not report.deadlock_free:
        raise DeadlockError(report.describe())
    return report


def analyze_virtual_networks(route_set: RouteSet,
                             phase_boundaries: dict) -> DeadlockReport:
    """Deadlock analysis under the simulator's virtual-network split.

    The simulator partitions the virtual channels of a two-virtual-network
    algorithm with per-flow *phase boundaries* — flow ``f`` uses the first
    VC class for hops before ``phase_boundaries[f]`` and the second class
    from that hop on (see
    :func:`repro.simulator.simulation.phase_boundaries_for`).  The route
    set is deadlock free under that split iff each virtual network's
    induced CDG is acyclic on its own.  Flows without a boundary run
    entirely in the first network.

    This is the registry-generic check: it reproduces
    :func:`analyze_route_set` for single-network algorithms (empty
    boundaries), checks ROMM / Valiant with the boundaries at their
    intermediate nodes
    (:func:`~repro.simulator.simulation.phase_boundaries_from_intermediates`),
    and covers O1TURN, whose boundary is 0 or the full route length.  A
    deadlock-free report carries the topological order it was proved with
    as :attr:`DeadlockReport.ranks`.
    """
    networks: Tuple[List[Sequence], List[Sequence]] = ([], [])
    for route in route_set:
        first, second = _split(route, phase_boundaries)
        if first:
            networks[0].append(first)
        if second:
            networks[1].append(second)

    ranks = []
    for label, phase_routes in (("virtual network 1", networks[0]),
                                ("virtual network 2", networks[1])):
        cdg = cdg_from_routes(route_set.topology, phase_routes, name=label)
        try:
            order = cdg.topological_order()
        except CyclicCDGError:
            return DeadlockReport(
                deadlock_free=False,
                cycle=cdg.find_cycle(),
                induced_cdg=cdg,
                detail=f"{label} has a cyclic dependence",
            )
        ranks.append({resource: rank for rank, resource in enumerate(order)})
    return DeadlockReport(
        deadlock_free=True,
        detail="each virtual network conforms to an acyclic CDG on its own",
        ranks=tuple(ranks),
    )


def _split(route: Route, phase_boundaries: Mapping[str, int]
           ) -> Tuple[Sequence, Sequence]:
    """A route's hops in the first and in the second virtual network."""
    boundary = phase_boundaries.get(route.flow.name)
    if boundary is None:
        return route.resources, ()
    boundary = max(0, min(boundary, len(route.resources)))
    return route.resources[:boundary], route.resources[boundary:]


def certifies(route_set: RouteSet, phase_boundaries: Mapping[str, int],
              ranks: Sequence[Mapping[Resource, int]]) -> bool:
    """True when *ranks* prove *route_set* deadlock free under the split.

    *ranks* holds one mapping per virtual network, from each resource the
    network uses to an ``int`` (what :func:`analyze_virtual_networks`
    reports).  The proof holds when, inside each network, consecutive hops
    of every route are chained channels whose ranks strictly increase:
    every dependence edge then climbs in rank, so no network's induced CDG
    has a cycle (Lemma 1).  One pass over the hops, no graph built; a
    missing rank, a rank that is not an ``int`` (``bool`` included) or an
    edge that does not climb rejects.
    """
    for route in route_set:
        for network, hops in enumerate(_split(route, phase_boundaries)):
            if not hops:
                continue
            if network >= len(ranks):
                return False
            table = ranks[network]
            below, upstream = -1, None
            for resource in hops:
                rank = table.get(resource)
                if type(rank) is not int:
                    return False
                channel = physical(resource)
                if upstream is not None and (rank <= below
                                             or upstream.dst != channel.src):
                    return False
                below, upstream = rank, channel
    return True

