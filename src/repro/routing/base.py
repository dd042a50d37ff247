"""Routes, route sets and the routing-algorithm interface.

A *route* is the path assigned to one flow: an ordered sequence of channel
resources (physical channels, or virtual channels when the selector performs
static VC allocation).  A *route set* maps every flow of an application to
its route; it is the artefact BSOR produces offline and the router tables
and the simulator consume.

Oblivious routing means the route of a flow is fixed before run time —
everything in this module is static data, there is no notion of network
state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import RoutingError
from ..topology.base import Topology
from ..topology.links import Channel, VirtualChannel, physical, virtual_index
from ..traffic.flow import Flow, FlowSet

Resource = object  # Channel | VirtualChannel; kept loose to avoid import cycles


@dataclass(frozen=True)
class Route:
    """The path assigned to one flow.

    Attributes
    ----------
    flow:
        The flow this route carries.
    resources:
        The ordered channel resources the route traverses.  All physical
        channels, or all virtual channels — mixing the two in one route is
        rejected because the simulator could not interpret it.
    """

    flow: Flow
    resources: Tuple

    def __post_init__(self) -> None:
        resources = tuple(self.resources)
        object.__setattr__(self, "resources", resources)
        if not resources:
            raise RoutingError(f"route of flow {self.flow.name} is empty")
        kinds = {isinstance(resource, VirtualChannel) for resource in resources}
        if len(kinds) > 1:
            raise RoutingError(
                f"route of flow {self.flow.name} mixes physical and virtual "
                f"channels"
            )
        channels = [physical(resource) for resource in resources]
        if channels[0].src != self.flow.source:
            raise RoutingError(
                f"route of flow {self.flow.name} starts at node "
                f"{channels[0].src}, expected {self.flow.source}"
            )
        if channels[-1].dst != self.flow.destination:
            raise RoutingError(
                f"route of flow {self.flow.name} ends at node "
                f"{channels[-1].dst}, expected {self.flow.destination}"
            )
        for upstream, downstream in zip(channels, channels[1:]):
            if upstream.dst != downstream.src:
                raise RoutingError(
                    f"route of flow {self.flow.name} is not a chain of "
                    f"consecutive channels: {upstream} then {downstream}"
                )

    # ------------------------------------------------------------------
    @property
    def channels(self) -> List[Channel]:
        """The physical channels of the route, in order."""
        return [physical(resource) for resource in self.resources]

    @property
    def node_path(self) -> List[int]:
        """The nodes visited, source first and destination last."""
        channels = self.channels
        return [channels[0].src] + [channel.dst for channel in channels]

    @property
    def hop_count(self) -> int:
        """Number of channels (network hops) on the route."""
        return len(self.resources)

    @property
    def is_statically_vc_allocated(self) -> bool:
        """True when every hop names a specific virtual channel."""
        return all(isinstance(resource, VirtualChannel) for resource in self.resources)

    @property
    def vc_indices(self) -> List[Optional[int]]:
        """Per-hop virtual channel index (``None`` for physical-channel hops)."""
        return [virtual_index(resource) for resource in self.resources]

    def is_minimal(self, topology: Topology) -> bool:
        """True when the route's hop count equals the topological minimum."""
        return self.hop_count == topology.shortest_path_length(
            self.flow.source, self.flow.destination
        )

    def uses_channel(self, channel: Channel) -> bool:
        """True when the route traverses the given physical channel."""
        return channel in self.channels

    def turn_count(self, topology: Topology) -> int:
        """Number of 90-degree turns the route takes."""
        directions = [topology.direction_of(channel) for channel in self.channels]
        return sum(1 for a, b in zip(directions, directions[1:]) if a is not b)

    def describe(self, topology: Optional[Topology] = None) -> str:
        if topology is None:
            path = " -> ".join(str(node) for node in self.node_path)
        else:
            path = " -> ".join(topology.node_label(node) for node in self.node_path)
        return f"{self.flow.name}: {path} ({self.hop_count} hops)"

    def __len__(self) -> int:
        return len(self.resources)


class RouteSet:
    """The routes of all flows of one application under one routing algorithm.

    The algorithm's name is fixed at construction; :meth:`add` is the only
    mutator, and it drops the canonical key fragment
    :mod:`repro.runner.fingerprint` keeps on the set.
    """

    def __init__(self, topology: Topology, flow_set: FlowSet,
                 algorithm: str = "") -> None:
        self.topology = topology
        self.flow_set = flow_set
        self._algorithm = algorithm
        self._routes: Dict[str, Route] = {}
        self._key_fragment: Optional[str] = None

    @property
    def algorithm(self) -> str:
        """The name of the routing algorithm that produced the routes."""
        return self._algorithm

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add(self, route: Route) -> None:
        name = route.flow.name
        if name in self._routes:
            raise RoutingError(f"flow {name!r} already has a route")
        if route.flow not in self.flow_set:
            raise RoutingError(f"flow {name!r} is not part of this flow set")
        self._routes[name] = route
        self._key_fragment = None

    def add_path(self, flow: Flow, resources: Sequence) -> Route:
        """Build a :class:`Route` from resources and add it."""
        route = Route(flow, tuple(resources))
        self.add(route)
        return route

    def add_node_path(self, flow: Flow, node_path: Sequence[int]) -> Route:
        """Build a route from a node path (physical channels, dynamic VCs)."""
        channels = []
        nodes = list(node_path)
        for a, b in zip(nodes, nodes[1:]):
            channels.append(self.topology.channel(a, b))
        return self.add_path(flow, channels)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[Route]:
        return iter(self._routes.values())

    def __contains__(self, flow_name: str) -> bool:
        return flow_name in self._routes

    def route_of(self, flow: Flow) -> Route:
        return self.route_by_name(flow.name)

    def route_by_name(self, flow_name: str) -> Route:
        if flow_name not in self._routes:
            raise RoutingError(f"no route for flow {flow_name!r}")
        return self._routes[flow_name]

    @property
    def routes(self) -> List[Route]:
        return list(self._routes.values())

    def is_complete(self) -> bool:
        """True when every flow of the flow set has a route."""
        return all(flow.name in self._routes for flow in self.flow_set)

    def missing_flows(self) -> List[Flow]:
        return [flow for flow in self.flow_set if flow.name not in self._routes]

    # ------------------------------------------------------------------
    # aggregate metrics (thin wrappers; heavier analysis in repro.metrics)
    # ------------------------------------------------------------------
    def channel_loads(self) -> Dict[Channel, float]:
        """Total demand carried by each physical channel."""
        loads: Dict[Channel, float] = {}
        for route in self._routes.values():
            for channel in route.channels:
                loads[channel] = loads.get(channel, 0.0) + route.flow.demand
        return loads

    def max_channel_load(self) -> float:
        """The maximum channel load (MCL) of this route set."""
        loads = self.channel_loads()
        return max(loads.values(), default=0.0)

    def bottleneck_channels(self) -> List[Channel]:
        """The channels whose load equals the MCL."""
        loads = self.channel_loads()
        if not loads:
            return []
        mcl = max(loads.values())
        return [channel for channel, load in loads.items() if load == mcl]

    def total_hop_count(self) -> int:
        return sum(route.hop_count for route in self._routes.values())

    def average_hop_count(self) -> float:
        if not self._routes:
            return 0.0
        return self.total_hop_count() / len(self._routes)

    def flows_through(self, channel: Channel) -> List[Flow]:
        """The flows whose routes use a given physical channel."""
        return [route.flow for route in self._routes.values()
                if route.uses_channel(channel)]

    def max_flows_per_channel(self) -> int:
        """The largest number of flows sharing one physical channel.

        Relevant both as an alternative objective (Section 7.2 suggests
        minimising it when bandwidths are unknown) and as a router-table /
        VC-count hardware constraint.
        """
        counts: Dict[Channel, int] = {}
        for route in self._routes.values():
            for channel in route.channels:
                counts[channel] = counts.get(channel, 0) + 1
        return max(counts.values(), default=0)

    def is_statically_vc_allocated(self) -> bool:
        return all(route.is_statically_vc_allocated for route in self._routes.values())

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [
            f"RouteSet[{self.algorithm or 'unnamed'}] for "
            f"{self.flow_set.name or 'flows'}: {len(self)} routes, "
            f"MCL={self.max_channel_load():g}, "
            f"avg hops={self.average_hop_count():.2f}"
        ]
        for route in self._routes.values():
            lines.append("  " + route.describe(self.topology))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RouteSet(algorithm={self.algorithm!r}, routes={len(self)}, "
            f"mcl={self.max_channel_load():g})"
        )


class RoutingAlgorithm(ABC):
    """Interface of every routing algorithm in the library.

    Oblivious algorithms compute all routes offline from the topology and
    the flow set alone; the returned :class:`RouteSet` is then loaded into
    router tables (or interpreted algorithmically) by the simulator.
    """

    #: Human-readable name used in result tables (e.g. ``"XY"``, ``"BSOR-MILP"``).
    name: str = "routing"

    @abstractmethod
    def compute_routes(self, topology: Topology, flow_set: FlowSet) -> RouteSet:
        """Compute a route for every flow of *flow_set* on *topology*."""

    def solver_diagnostics(self) -> Dict[str, object]:
        """Solver diagnostics of the last :meth:`compute_routes`, by name of
        the sub-problem solved (BSOR-MILP: one
        :class:`~repro.routing.bsor.milp.MILPSolution` per CDG).  Empty for
        algorithms that solve nothing."""
        return {}

    def __call__(self, topology: Topology, flow_set: FlowSet) -> RouteSet:
        return self.compute_routes(topology, flow_set)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
