"""Channel dependence graphs (CDGs).

Definition 2 of the paper: the CDG ``D(V', E')`` of a flow network ``G`` has
one vertex per channel (directed link) of ``G`` and an edge from channel
``v1`` to channel ``v2`` whenever a packet can traverse ``v1`` and then
``v2`` consecutively.  180-degree turns are disallowed, so the edge from
``BC`` to ``CB`` never exists.

Deadlock freedom (Lemma 1, Dally & Seitz / Dally & Aoki): a routing algorithm
is deadlock free iff the routes it produces conform to an **acyclic** CDG.
The BSOR framework therefore derives acyclic CDGs (via turn models or ad hoc
edge removal — see :mod:`repro.cdg.turn_model` and :mod:`repro.cdg.acyclic`),
selects routes that conform to them, and is deadlock free by construction.

When the network has ``z`` virtual channels per physical link, the CDG is
expanded so each physical channel contributes ``z`` vertices; a packet may
switch virtual channel at a hop, so consecutive physical channels contribute
``z * z`` dependence edges (Section 3.7).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx

from ..exceptions import CDGError, CyclicCDGError
from ..topology.base import Topology
from ..topology.directions import Direction, Turn
from ..topology.links import Channel, VirtualChannel, physical

#: A CDG vertex is a channel resource: a physical channel when the network
#: has a single virtual channel per link, or a virtual channel otherwise.
Resource = Union[Channel, VirtualChannel]


class ChannelDependenceGraph:
    """A (possibly cyclic) channel dependence graph over a topology.

    The graph is deliberately mutable: acyclic CDGs are produced by removing
    dependence edges from a full CDG, and the number of removed edges is an
    interesting quality metric the paper reports (8 removals for the turn
    models on the 3x3 mesh versus 12 for the ad hoc graphs of Figure 3-4).
    """

    def __init__(self, topology: Topology, num_vcs: int = 1,
                 graph: Optional[nx.DiGraph] = None,
                 name: str = "cdg") -> None:
        if num_vcs < 1:
            raise CDGError(f"number of virtual channels must be >= 1: {num_vcs}")
        self.topology = topology
        self.num_vcs = int(num_vcs)
        self.name = name
        self._graph = graph if graph is not None else nx.DiGraph()
        self._removed_edges: List[Tuple[Resource, Resource]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_topology(cls, topology: Topology, num_vcs: int = 1,
                      allow_u_turns: bool = False,
                      name: str = "cdg") -> "ChannelDependenceGraph":
        """Build the full CDG of *topology*.

        Parameters
        ----------
        num_vcs:
            Number of virtual channels per physical link.  With ``num_vcs >
            1`` vertices are :class:`VirtualChannel` objects and every pair
            of virtual channels on consecutive physical links is connected.
        allow_u_turns:
            When True, 180-degree turns contribute dependence edges.  The
            paper never allows them; the flag exists so tests can check that
            u-turn edges are exactly the ones the default construction
            omits.
        """
        cdg = cls(topology, num_vcs=num_vcs, name=name)
        graph = cdg._graph

        def resources_of(channel: Channel) -> List[Resource]:
            if num_vcs == 1:
                return [channel]
            return [VirtualChannel(channel, vc) for vc in range(num_vcs)]

        for channel in topology.channels:
            for resource in resources_of(channel):
                graph.add_node(resource)

        for upstream in topology.channels:
            junction = upstream.dst
            for downstream in topology.out_channels(junction):
                if downstream.dst == upstream.src and not allow_u_turns:
                    continue  # 180-degree turn
                for res_up in resources_of(upstream):
                    for res_down in resources_of(downstream):
                        graph.add_edge(res_up, res_down)
        return cdg

    def copy(self, name: Optional[str] = None) -> "ChannelDependenceGraph":
        """An independent copy (removed-edge history is copied too)."""
        clone = ChannelDependenceGraph(
            self.topology, num_vcs=self.num_vcs,
            graph=self._graph.copy(), name=name or self.name,
        )
        clone._removed_edges = list(self._removed_edges)
        return clone

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.DiGraph:
        """The underlying :class:`networkx.DiGraph` (vertices are resources)."""
        return self._graph

    @property
    def vertices(self) -> List[Resource]:
        return list(self._graph.nodes)

    @property
    def edges(self) -> List[Tuple[Resource, Resource]]:
        return list(self._graph.edges)

    @property
    def num_vertices(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self._graph.number_of_edges()

    @property
    def removed_edges(self) -> Sequence[Tuple[Resource, Resource]]:
        """Dependence edges deleted so far (cycle-breaking history)."""
        return tuple(self._removed_edges)

    @property
    def num_removed_edges(self) -> int:
        return len(self._removed_edges)

    def has_edge(self, upstream: Resource, downstream: Resource) -> bool:
        return self._graph.has_edge(upstream, downstream)

    def successors(self, resource: Resource) -> List[Resource]:
        """Resources a packet may occupy immediately after *resource*."""
        if resource not in self._graph:
            raise CDGError(f"resource {resource} is not a CDG vertex")
        return list(self._graph.successors(resource))

    def predecessors(self, resource: Resource) -> List[Resource]:
        if resource not in self._graph:
            raise CDGError(f"resource {resource} is not a CDG vertex")
        return list(self._graph.predecessors(resource))

    def __contains__(self, resource: Resource) -> bool:
        return resource in self._graph

    def __iter__(self) -> Iterator[Resource]:
        return iter(self._graph.nodes)

    # ------------------------------------------------------------------
    # turn classification
    # ------------------------------------------------------------------
    def turn_of_edge(self, upstream: Resource, downstream: Resource) -> Turn:
        """The (incoming direction, outgoing direction) turn of a CDG edge."""
        up_channel = physical(upstream)
        down_channel = physical(downstream)
        if up_channel.dst != down_channel.src:
            raise CDGError(
                f"edge {upstream} -> {downstream} does not correspond to "
                f"consecutive channels"
            )
        return (
            self.topology.direction_of(up_channel),
            self.topology.direction_of(down_channel),
        )

    def edges_with_turn(self, turn: Turn) -> List[Tuple[Resource, Resource]]:
        """All dependence edges whose turn equals *turn*."""
        matching = []
        for upstream, downstream in self._graph.edges:
            if self.turn_of_edge(upstream, downstream) == turn:
                matching.append((upstream, downstream))
        return matching

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def remove_edge(self, upstream: Resource, downstream: Resource) -> None:
        """Delete one dependence edge (recording it in the removal history)."""
        if not self._graph.has_edge(upstream, downstream):
            raise CDGError(f"no dependence edge {upstream} -> {downstream}")
        self._graph.remove_edge(upstream, downstream)
        self._removed_edges.append((upstream, downstream))

    def remove_edges(self, edges: Iterable[Tuple[Resource, Resource]]) -> int:
        """Delete several dependence edges; returns how many were removed.

        Edges already absent are ignored, which makes it convenient to apply
        a turn prohibition to a CDG where some of the prohibited turns do not
        exist (e.g. at mesh boundaries).
        """
        removed = 0
        for upstream, downstream in edges:
            if self._graph.has_edge(upstream, downstream):
                self.remove_edge(upstream, downstream)
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # cycle analysis
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        """True when the dependence graph has no directed cycle."""
        return nx.is_directed_acyclic_graph(self._graph)

    def find_cycle(self) -> Optional[List[Tuple[Resource, Resource]]]:
        """One directed cycle as a list of edges, or ``None`` if acyclic.

        ``nx.find_cycle`` restarts its edge-DFS from every vertex, which is
        quadratic on the acyclic graphs every accepted CDG is; the linear
        ``nx.is_directed_acyclic_graph`` answers that case, and the DFS runs
        only to produce the witness of a cyclic graph.
        """
        if nx.is_directed_acyclic_graph(self._graph):
            return None
        return list(nx.find_cycle(self._graph, orientation=None))

    def require_acyclic(self) -> None:
        """Raise :class:`CyclicCDGError` if a cycle remains."""
        cycle = self.find_cycle()
        if cycle is not None:
            pretty = " -> ".join(str(edge[0]) for edge in cycle)
            raise CyclicCDGError(f"CDG {self.name!r} has a cycle: {pretty}")

    def topological_order(self) -> List[Resource]:
        """A topological order of the resources (requires acyclicity).

        One pass: the sort itself finds out whether the graph is acyclic,
        and only a cyclic graph pays for the witness in the error.
        """
        try:
            return list(nx.topological_sort(self._graph))
        except nx.NetworkXUnfeasible:
            self.require_acyclic()
            raise

    def strongly_connected_components(self) -> List[Set[Resource]]:
        """Non-trivial strongly connected components (each contains a cycle)."""
        return [comp for comp in nx.strongly_connected_components(self._graph)
                if len(comp) > 1]

    # ------------------------------------------------------------------
    # route conformance
    # ------------------------------------------------------------------
    def path_conforms(self, resources: Sequence[Resource]) -> bool:
        """True when consecutive resources of a route are CDG edges.

        A single-resource (or empty) path trivially conforms.
        """
        for upstream, downstream in zip(resources, resources[1:]):
            if not self._graph.has_edge(upstream, downstream):
                return False
        return all(resource in self._graph for resource in resources)

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def resource_label(self, resource: Resource) -> str:
        """Label like ``"AB"`` or ``"AB_0"`` using the topology's node names."""
        if isinstance(resource, VirtualChannel):
            return resource.label(self.topology.node_label)
        return resource.label(self.topology.node_label)

    def describe(self, max_edges: int = 40) -> str:
        """Short human readable summary of the graph."""
        status = "acyclic" if self.is_acyclic() else "cyclic"
        lines = [
            f"CDG {self.name!r}: {self.num_vertices} vertices, "
            f"{self.num_edges} edges, {self.num_removed_edges} removed, {status}"
        ]
        for index, (upstream, downstream) in enumerate(self._graph.edges):
            if index >= max_edges:
                lines.append(f"  ... ({self.num_edges - max_edges} more edges)")
                break
            lines.append(
                f"  {self.resource_label(upstream)} -> "
                f"{self.resource_label(downstream)}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "acyclic" if self.is_acyclic() else "cyclic"
        return (
            f"ChannelDependenceGraph(name={self.name!r}, "
            f"vertices={self.num_vertices}, edges={self.num_edges}, {status})"
        )


def cdg_from_routes(topology: Topology, routes: Iterable[Sequence[Resource]],
                    num_vcs: int = 1,
                    name: str = "route-induced") -> ChannelDependenceGraph:
    """The CDG *induced* by a set of routes.

    Its vertices are the resources used by at least one route and its edges
    are exactly the consecutive resource pairs appearing in some route.  By
    Lemma 1, the route set is deadlock free iff this graph is acyclic —
    :func:`repro.routing.deadlock.check_deadlock_freedom` builds on this.
    """
    cdg = ChannelDependenceGraph(topology, num_vcs=num_vcs, name=name)
    # routes share most of their hops (56 XY routes on the 8x8 mesh use 112
    # channels and 98 distinct consecutive pairs over 336 hops), so collect
    # each resource and each pair once, in first-seen order, and hand the
    # graph the distinct ones
    vertices: Dict[Resource, None] = {}
    edges: Dict[Tuple[Resource, Resource], None] = {}
    for route in routes:
        resources = list(route)
        vertices.update(dict.fromkeys(resources))
        for pair in zip(resources, resources[1:]):
            if pair in edges:
                continue
            upstream, downstream = pair
            if physical(upstream).dst != physical(downstream).src:
                raise CDGError(
                    f"route hops {upstream} -> {downstream} are not consecutive "
                    f"channels"
                )
            edges[pair] = None
    cdg.graph.add_nodes_from(vertices)
    cdg.graph.add_edges_from(edges)
    return cdg


def dependence_count_by_turn(cdg: ChannelDependenceGraph) -> Dict[str, int]:
    """Histogram of dependence edges by turn type (straight / named turn).

    Useful for sanity checks: on a mesh every 90-degree turn class should
    lose all its edges after the corresponding turn prohibition is applied.
    """
    histogram: Dict[str, int] = {}
    for upstream, downstream in cdg.edges:
        incoming, outgoing = cdg.turn_of_edge(upstream, downstream)
        if incoming is outgoing:
            key = "straight"
        else:
            key = f"{incoming.value}->{outgoing.value}"
        histogram[key] = histogram.get(key, 0) + 1
    return histogram
