"""Fault injection: degraded topologies and deadlock-safe rerouting.

The paper's deadlock-freedom argument — routes conform to an acyclic channel
dependence graph — is only interesting if it survives degraded networks.
This module makes faults a first-class scenario axis:

* :class:`LinkFault` / :class:`RouterFault` — one failed link (one or both
  directions of a physical wire) or one failed router, optionally stamped
  with the cycle at which it fails;
* :class:`FaultSet` — a canonicalised collection of faults, parsed from the
  compact spec grammar shared by the CLI (``--faults``), study YAML
  (``faults:``) and the fluent builder.  Static faults (cycle 0) degrade
  the topology before routing; scheduled faults (cycle > 0) become a
  :class:`FailureSchedule` the simulator kernels apply mid-run;
* :func:`route_with_faults` — the deadlock-safe rerouting contract: every
  registered router either produces routes on the degraded graph (natively,
  or via the keep/BFS-patch fallback for table-driven routers) or declares
  the fault unsupported with a clear :class:`~repro.exceptions.RoutingError`
  — and *every* degraded route set is re-verified for CDG acyclicity with
  :func:`repro.routing.deadlock.analyze_virtual_networks` before any
  simulation starts;
* :func:`plan_on` / :class:`RoutePlan` — routes ready to simulate from a
  built router, with or without faults (the by-name funnel on top of it is
  :mod:`repro.planning`).

Spec grammar (one fault set)::

    link:0-1            both directions of the wire between nodes 0 and 1
    link:0>1            the directed channel 0 -> 1 only
    router:5            router 5 (all of its channels)
    link:0-1@600        the wire fails at cycle 600 (mid-run, fail-stop)
    link:0-1,router:5   several faults, comma separated

``none`` (or an empty string) is the explicit fault-free set, useful as the
baseline point of a fault axis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from .exceptions import (
    DeadlockError,
    FaultError,
    ReproError,
    RoutingError,
    UnroutableFlowError,
)
from .routing.base import RouteSet, RoutingAlgorithm
from .routing.deadlock import DeadlockReport, analyze_virtual_networks
from .topology.base import Topology
from .topology.links import Channel

if TYPE_CHECKING:
    from .routing.registry import RouterSpec


# ----------------------------------------------------------------------
# individual faults
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class LinkFault:
    """A failed link.

    By default both directions of the physical wire between *src* and *dst*
    fail together (``directed=False``); a directed fault kills only the
    ``src -> dst`` channel.  ``cycle`` 0 means the link is down from the
    start (a *static* fault, removed from the topology before routing);
    a positive cycle schedules a fail-stop failure mid-run.
    """

    src: int
    dst: int
    cycle: int = 0
    directed: bool = False

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise FaultError(f"link fault cannot be a self loop: {self.src}")
        if self.src < 0 or self.dst < 0:
            raise FaultError(
                f"link fault endpoints must be non-negative: "
                f"({self.src}, {self.dst})"
            )
        if self.cycle < 0:
            raise FaultError(f"fault cycle must be >= 0: {self.cycle}")
        if not self.directed and self.src > self.dst:
            # canonical undirected form: smaller endpoint first
            low, high = self.dst, self.src
            object.__setattr__(self, "src", low)
            object.__setattr__(self, "dst", high)

    def channels(self) -> Tuple[Channel, ...]:
        """The directed channels this fault takes down."""
        forward = Channel(self.src, self.dst)
        if self.directed:
            return (forward,)
        return (forward, forward.reverse)

    def label(self) -> str:
        sep = ">" if self.directed else "-"
        stamp = f"@{self.cycle}" if self.cycle else ""
        return f"link:{self.src}{sep}{self.dst}{stamp}"


@dataclass(frozen=True, order=True)
class RouterFault:
    """A failed router: every channel entering or leaving *node* fails."""

    node: int
    cycle: int = 0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise FaultError(f"router fault node must be non-negative: {self.node}")
        if self.cycle < 0:
            raise FaultError(f"fault cycle must be >= 0: {self.cycle}")

    def label(self) -> str:
        stamp = f"@{self.cycle}" if self.cycle else ""
        return f"router:{self.node}{stamp}"


Fault = object  # LinkFault | RouterFault


def _parse_entry_string(text: str):
    """Parse one compact fault entry such as ``link:0-1@600``."""
    entry = text.strip()
    body, at, stamp = entry.partition("@")
    cycle = 0
    if at:
        try:
            cycle = int(stamp)
        except ValueError:
            raise FaultError(
                f"invalid fault cycle {stamp!r} in entry {entry!r}"
            ) from None
    kind, colon, rest = body.partition(":")
    kind = kind.strip().lower()
    if not colon or kind not in ("link", "router"):
        raise FaultError(
            f"invalid fault entry {entry!r}: expected 'link:SRC-DST', "
            f"'link:SRC>DST' or 'router:NODE', each optionally "
            f"suffixed with '@CYCLE'"
        )
    rest = rest.strip()
    if kind == "router":
        try:
            node = int(rest)
        except ValueError:
            raise FaultError(
                f"invalid router fault node {rest!r} in entry {entry!r}"
            ) from None
        return RouterFault(node, cycle=cycle)
    directed = ">" in rest
    parts = rest.split(">" if directed else "-")
    if len(parts) != 2:
        raise FaultError(
            f"invalid link fault {rest!r} in entry {entry!r}: expected "
            f"'SRC-DST' (both directions) or 'SRC>DST' (one direction)"
        )
    try:
        src, dst = (int(part) for part in parts)
    except ValueError:
        raise FaultError(
            f"invalid link fault endpoints {rest!r} in entry {entry!r}"
        ) from None
    return LinkFault(src, dst, cycle=cycle, directed=directed)


_DICT_KEYS = ("link", "router", "cycle", "directed")


def _parse_entry_mapping(data: Mapping):
    """Parse one mapping entry: ``{link: [0, 1], cycle: 600}`` and friends."""
    unknown = sorted(set(data) - set(_DICT_KEYS))
    if unknown:
        raise FaultError(
            f"unknown fault entry key(s) {unknown} in {dict(data)!r}; "
            f"accepted keys: {list(_DICT_KEYS)}"
        )
    if ("link" in data) == ("router" in data):
        raise FaultError(
            f"fault entry {dict(data)!r} must name exactly one of "
            f"'link' or 'router'"
        )
    try:
        cycle = int(data.get("cycle", 0))
    except (TypeError, ValueError):
        raise FaultError(
            f"invalid fault cycle {data.get('cycle')!r} in {dict(data)!r}"
        ) from None
    if "router" in data:
        try:
            node = int(data["router"])
        except (TypeError, ValueError):
            raise FaultError(
                f"invalid router fault node {data['router']!r}"
            ) from None
        return RouterFault(node, cycle=cycle)
    value = data["link"]
    directed = bool(data.get("directed", False))
    if isinstance(value, str):
        fault = _parse_entry_string(f"link:{value}")
        return LinkFault(fault.src, fault.dst, cycle=cycle,
                         directed=fault.directed or directed)
    try:
        src, dst = (int(part) for part in value)
    except (TypeError, ValueError):
        raise FaultError(
            f"invalid link fault endpoints {value!r}: expected "
            f"'SRC-DST', 'SRC>DST' or a [SRC, DST] pair"
        ) from None
    return LinkFault(src, dst, cycle=cycle, directed=directed)


@dataclass(frozen=True)
class FaultSet:
    """A canonicalised, hashable collection of link and router faults.

    Faults with ``cycle == 0`` are *static*: :meth:`degrade` removes their
    channels from the topology before any routing happens.  Faults with a
    positive cycle are *scheduled*: they stay in the topology and
    :meth:`schedule` turns them into the :class:`FailureSchedule` the
    simulator kernels apply mid-run.
    """

    faults: Tuple = ()

    def __post_init__(self) -> None:
        links = sorted(f for f in self.faults if isinstance(f, LinkFault))
        routers = sorted(f for f in self.faults if isinstance(f, RouterFault))
        odd = [f for f in self.faults
               if not isinstance(f, (LinkFault, RouterFault))]
        if odd:
            raise FaultError(f"not a fault: {odd[0]!r}")
        canonical: List = []
        for fault in (*links, *routers):
            if fault not in canonical:
                canonical.append(fault)
        object.__setattr__(self, "faults", tuple(canonical))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, value) -> "FaultSet":
        """Build a fault set from any accepted spec form.

        Accepts ``None`` / ``""`` / ``"none"`` (the empty set), a compact
        comma-separated string, a single fault or mapping entry, an
        iterable of entries, or an existing :class:`FaultSet` (returned
        unchanged).
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, (LinkFault, RouterFault)):
            return cls((value,))
        if isinstance(value, str):
            text = value.strip()
            if not text or text.lower() == "none":
                return cls()
            return cls(tuple(_parse_entry_string(part)
                             for part in text.split(",") if part.strip()))
        if isinstance(value, Mapping):
            return cls((_parse_entry_mapping(value),))
        if isinstance(value, Iterable):
            faults: List = []
            for entry in value:
                faults.extend(cls.from_spec(entry).faults)
            return cls(tuple(faults))
        raise FaultError(f"cannot interpret fault spec: {value!r}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    @property
    def static_faults(self) -> Tuple:
        """Faults present from cycle 0 (removed before routing)."""
        return tuple(f for f in self.faults if f.cycle == 0)

    @property
    def scheduled_faults(self) -> Tuple:
        """Faults that strike mid-run (cycle > 0)."""
        return tuple(f for f in self.faults if f.cycle > 0)

    def label(self) -> str:
        """Canonical compact-string form; ``"none"`` for the empty set."""
        if not self.faults:
            return "none"
        return ",".join(fault.label() for fault in self.faults)

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def _fault_channels(self, topology: Topology, faults) -> Tuple[Channel, ...]:
        """The directed channels of *faults*, validated against *topology*.

        Channels are returned in the topology's own channel order so the
        degraded channel list — and with it every downstream fingerprint —
        is deterministic.
        """
        requested: List[Channel] = []
        for fault in faults:
            if isinstance(fault, RouterFault):
                if not 0 <= fault.node < topology.num_nodes:
                    raise FaultError(
                        f"fault {fault.label()} names node {fault.node}, "
                        f"outside topology of {topology.num_nodes} nodes"
                    )
                requested.extend(topology.in_channels(fault.node))
                requested.extend(topology.out_channels(fault.node))
                continue
            for channel in fault.channels():
                if not topology.has_channel(channel.src, channel.dst):
                    raise FaultError(
                        f"fault {fault.label()} names channel {channel}, "
                        f"which the topology does not have"
                    )
                requested.append(channel)
        wanted = set(requested)
        return tuple(ch for ch in topology.channels if ch in wanted)

    def degrade(self, topology: Topology) -> Topology:
        """The topology with every static fault's channel removed.

        With no static faults the *same* topology object is returned, so a
        fault-free axis point keeps its (cached) fault-free identity.
        """
        channels = self._fault_channels(topology, self.static_faults)
        if not channels:
            return topology
        return topology.without_channels(channels)

    def schedule(self, topology: Topology) -> "FailureSchedule":
        """The mid-run failure schedule on the (already degraded) topology.

        Raises :class:`FaultError` when a scheduled fault names a channel
        the degraded topology no longer has — a link cannot fail at cycle
        600 if it was already statically removed.
        """
        by_cycle: Dict[int, List[Channel]] = {}
        for fault in self.scheduled_faults:
            faults_channels = self._fault_channels(topology, (fault,))
            if isinstance(fault, RouterFault) and not faults_channels:
                raise FaultError(
                    f"fault {fault.label()} names a router with no "
                    f"surviving channels"
                )
            by_cycle.setdefault(fault.cycle, []).extend(faults_channels)
        events = tuple(
            (cycle, tuple(sorted(set(by_cycle[cycle]))))
            for cycle in sorted(by_cycle)
        )
        return FailureSchedule(events=events)


@dataclass(frozen=True)
class FailureSchedule:
    """Cycle-stamped link failures, ready for the simulator kernels.

    ``events`` is a sorted tuple of ``(cycle, channels)`` pairs: at the top
    of the named cycle, every listed channel fails (fail-stop).  The object
    is immutable and picklable so it can ride inside a
    :class:`~repro.runner.engine.SweepSpec` across process boundaries.
    """

    events: Tuple[Tuple[int, Tuple[Channel, ...]], ...] = ()

    def __post_init__(self) -> None:
        events = tuple(sorted(
            (int(cycle), tuple(channels)) for cycle, channels in self.events
        ))
        for cycle, channels in events:
            if cycle <= 0:
                raise FaultError(
                    f"scheduled failures must have cycle > 0: {cycle}"
                )
            if not channels:
                raise FaultError(f"empty failure event at cycle {cycle}")
        object.__setattr__(self, "events", events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def to_payload(self) -> List:
        """Canonical JSON-serialisable form for cache fingerprints."""
        return [[cycle, [[ch.src, ch.dst] for ch in channels]]
                for cycle, channels in self.events]


# ----------------------------------------------------------------------
# deadlock-safe rerouting
# ----------------------------------------------------------------------
@dataclass
class RoutePlan:
    """Routes ready to simulate: what every planning call returns.

    Produced by :func:`plan_on` (and, under a non-empty fault set, by
    :func:`route_with_faults`); :func:`repro.planning.plan_routes` fills in
    ``spec``.

    Attributes
    ----------
    topology:
        The topology to simulate on: the degraded one under static faults,
        otherwise the base topology object itself.
    route_set:
        A complete route set on that topology (deadlock-verified whenever
        faults were applied).
    phase_boundaries:
        The per-flow virtual-network split of the routing algorithm
        (empty for single-network algorithms).
    schedule:
        The mid-run :class:`FailureSchedule` (empty without scheduled
        faults).
    rerouted_flows:
        Flows whose nominal route died with a static fault and were
        re-routed by the BFS patch fallback (empty when the router computed
        natively).
    report:
        The :class:`~repro.routing.deadlock.DeadlockReport` of the
        mandatory re-verification under faults, or of the verification
        every plan loaded from the route-plan cache passes (always
        ``deadlock_free``); ``None`` for a fault-free plan solved here,
        which verifies nothing.
    router:
        The :class:`~repro.routing.base.RoutingAlgorithm` instance that
        computed the routes; ``None`` when no router ran because the plan
        came out of the cache.
    spec:
        The router's :class:`~repro.routing.registry.RouterSpec` when the
        plan was made by name.
    solves:
        Solver diagnostics of the plan, by sub-problem: one
        :class:`~repro.routing.bsor.milp.MILPSolution` per CDG BSOR-MILP
        explored, empty for routers that solve nothing.  They travel with
        the plan through the cache.
    cached / stored:
        Whether :func:`repro.planning.plan_routes` answered from the
        route-plan cache, and whether it stored what it solved (a plan
        with a non-optimal solve is returned but never stored).
    """

    topology: Topology
    route_set: RouteSet
    phase_boundaries: Dict[str, int]
    schedule: FailureSchedule
    rerouted_flows: Tuple[str, ...] = ()
    report: Optional[DeadlockReport] = None
    router: Optional[RoutingAlgorithm] = None
    spec: Optional["RouterSpec"] = None
    solves: Mapping[str, object] = field(default_factory=dict)
    cached: bool = False
    stored: bool = False


def _bfs_path(topology: Topology, src: int, dst: int) -> List[int]:
    """Deterministic BFS shortest path (neighbours visited in sorted order)."""
    parents: Dict[int, Optional[int]] = {src: None}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        if node == dst:
            break
        for neighbour in sorted(topology.neighbors(node)):
            if neighbour not in parents:
                parents[neighbour] = node
                frontier.append(neighbour)
    path = [dst]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return list(reversed(path))


def check_reachability(topology: Topology, flow_set) -> None:
    """Raise :class:`UnroutableFlowError` naming the first unreachable pair."""
    reachable: Dict[int, set] = {}
    for flow in flow_set:
        if flow.source not in reachable:
            seen = {flow.source}
            frontier = deque([flow.source])
            while frontier:
                node = frontier.popleft()
                for neighbour in topology.neighbors(node):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            reachable[flow.source] = seen
        if flow.destination not in reachable[flow.source]:
            raise UnroutableFlowError(
                f"flow {flow.name!r} is unroutable: no path from node "
                f"{flow.source} to node {flow.destination} on this topology"
            )


def _patch_routes(router: RoutingAlgorithm, base: Topology,
                  degraded: Topology, flow_set,
                  native_error: ReproError) -> Tuple[RouteSet, Tuple[str, ...]]:
    """Keep surviving nominal routes, BFS-reroute the broken ones.

    Table-driven routers (DOR, O1TURN, ...) cannot natively route an
    irregular graph; the patch fallback computes their nominal routes on the
    intact base topology, keeps every route whose channels all survived
    (those stay provably minimal: the degraded minimum can only grow) and
    re-routes the broken flows along deterministic BFS shortest paths.
    Routes are expressed over physical channels — static VC allocations do
    not survive the patch — so the deadlock re-verification sees one
    uniform resource kind.
    """
    try:
        nominal = router.compute_routes(base, flow_set)
    except ReproError:
        raise RoutingError(
            f"router {router.name} does not support this fault set: "
            f"it can route neither the degraded topology ({native_error}) "
            f"nor the intact one"
        ) from native_error
    surviving = set(degraded.channels)
    route_set = RouteSet(degraded, flow_set, algorithm=nominal.algorithm)
    rerouted: List[str] = []
    for route in nominal:
        channels = route.channels
        if all(channel in surviving for channel in channels):
            route_set.add_path(route.flow, channels)
        else:
            route_set.add_node_path(
                route.flow,
                _bfs_path(degraded, route.flow.source, route.flow.destination),
            )
            rerouted.append(route.flow.name)
    return route_set, tuple(rerouted)


def route_with_faults(router: RoutingAlgorithm, topology: Topology,
                      flow_set, faults=None) -> RoutePlan:
    """Compute deadlock-verified routes for *flow_set* under *faults*.

    The rerouting contract, in order:

    1. the static faults degrade the topology;
    2. a BFS reachability pre-check raises
       :class:`~repro.exceptions.UnroutableFlowError` naming the first
       disconnected (source, destination) pair;
    3. the router computes routes on the degraded topology — natively when
       it can (BSOR re-solves its MILP/Dijkstra selection on the surviving
       links; the CDG strategies stay acyclic because a subgraph of an
       acyclic graph is acyclic), otherwise through the keep/BFS-patch
       fallback for table-driven routers (see :func:`_patch_routes`);
    4. the degraded route set is **always** re-verified with
       :func:`~repro.routing.deadlock.analyze_virtual_networks`; a cyclic
       virtual network raises :class:`~repro.exceptions.DeadlockError`
       declaring the fault unsupported for this router.

    The returned :class:`RoutePlan` carries everything a caller
    needs to simulate the point: degraded topology, route set, phase
    boundaries and the mid-run failure schedule.
    """
    from .simulator.simulation import phase_boundaries_for

    fault_set = FaultSet.from_spec(faults)
    degraded = fault_set.degrade(topology)
    check_reachability(degraded, flow_set)
    rerouted: Tuple[str, ...] = ()
    if degraded is topology:
        route_set = router.compute_routes(topology, flow_set)
    else:
        try:
            route_set = router.compute_routes(degraded, flow_set)
        except ReproError as native_error:
            route_set, rerouted = _patch_routes(
                router, topology, degraded, flow_set, native_error)
    boundaries = phase_boundaries_for(router, route_set)
    report = analyze_virtual_networks(route_set, boundaries or {})
    if not report.deadlock_free:
        raise DeadlockError(
            f"router {router.name} does not support fault set "
            f"[{fault_set.label()}]: the degraded route set is not "
            f"deadlock free ({report.detail})"
        )
    return RoutePlan(
        topology=degraded,
        route_set=route_set,
        phase_boundaries=boundaries,
        schedule=fault_set.schedule(degraded),
        rerouted_flows=rerouted,
        report=report,
        router=router,
        solves=router.solver_diagnostics(),
    )


def plan_on(router: RoutingAlgorithm, topology: Topology, flow_set,
            faults=None) -> RoutePlan:
    """Plan *flow_set* with an already-built *router*.

    A non-empty fault set goes through :func:`route_with_faults`.  The
    fault-free path is exactly one ``compute_routes`` call plus the
    router's phase boundaries — no reachability walk and no deadlock
    re-verification, because on an intact topology every registered router
    is deadlock free by construction.
    """
    from .simulator.simulation import phase_boundaries_for

    fault_set = FaultSet.from_spec(faults)
    if fault_set:
        return route_with_faults(router, topology, flow_set, fault_set)
    route_set = router.compute_routes(topology, flow_set)
    return RoutePlan(
        topology=topology,
        route_set=route_set,
        phase_boundaries=phase_boundaries_for(router, route_set),
        schedule=FailureSchedule(),
        router=router,
        solves=router.solver_diagnostics(),
    )
