"""Flow graphs derived from acyclic channel dependence graphs (Section 3.4).

Route selection does not run on the interconnection network directly but on a
*flow graph* ``G_A`` derived from an acyclic CDG ``D_A``:

* every CDG vertex (a channel, or a virtual channel) becomes a flow-graph
  vertex;
* every CDG dependence edge becomes a flow-graph edge;
* for every network node that is the source of some flow, a **source
  terminal** vertex is added with edges to every channel leaving that node;
* for every network node that is the destination of some flow, a **sink
  terminal** vertex is added with edges from every channel entering it.

A path from a source terminal to a sink terminal therefore corresponds to a
sequence of consecutive channels that conforms to ``D_A`` — so any route
read off ``G_A`` is deadlock free by construction.

The Dijkstra selector keeps residual capacities on the channel vertices
(each flow-graph edge is weighted by the vertex it is *incident on*, as in
the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import networkx as nx

from ..cdg.cdg import ChannelDependenceGraph, Resource
from ..exceptions import CDGError, RoutingError
from ..topology.links import Channel, VirtualChannel, physical


@dataclass(frozen=True, order=True)
class Terminal:
    """A per-node terminal vertex of the flow graph.

    ``kind`` is ``"source"`` for injection terminals and ``"sink"`` for
    ejection terminals; ``node`` is the network node the terminal stands for.
    """

    node: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("source", "sink"):
            raise RoutingError(f"terminal kind must be 'source' or 'sink': {self.kind}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        prefix = "s" if self.kind == "source" else "t"
        return f"{prefix}({self.node})"


#: A vertex of the flow graph: either a channel resource or a terminal.
FlowVertex = Union[Channel, VirtualChannel, Terminal]


class FlowGraph:
    """The flow network ``G_A`` derived from an acyclic CDG ``D_A``.

    Parameters
    ----------
    cdg:
        The acyclic channel dependence graph the routes must conform to.
        A cyclic CDG is rejected because routes selected on it would not be
        deadlock free.
    require_acyclic:
        Set to False only in tests that deliberately exercise cyclic graphs.
    """

    def __init__(self, cdg: ChannelDependenceGraph,
                 require_acyclic: bool = True) -> None:
        if require_acyclic and not cdg.is_acyclic():
            raise CDGError(
                f"flow graphs must be derived from an acyclic CDG; "
                f"{cdg.name!r} has cycles"
            )
        self.cdg = cdg
        self.topology = cdg.topology
        self._graph = nx.DiGraph()
        self._graph.add_nodes_from(cdg.vertices)
        self._graph.add_edges_from(cdg.edges)
        self._source_terminals: Dict[int, Terminal] = {}
        self._sink_terminals: Dict[int, Terminal] = {}

    # ------------------------------------------------------------------
    # terminals
    # ------------------------------------------------------------------
    def add_source_terminal(self, node: int) -> Terminal:
        """Add (or return) the source terminal of a network node.

        Edges go from the terminal to every CDG vertex whose channel leaves
        *node* (all virtual channels of those links, when VCs are modelled).
        """
        if node in self._source_terminals:
            return self._source_terminals[node]
        terminal = Terminal(node, "source")
        self._graph.add_node(terminal)
        out_channels = set(self.topology.out_channels(node))
        attached = 0
        for resource in self.cdg.vertices:
            if physical(resource) in out_channels:
                self._graph.add_edge(terminal, resource)
                attached += 1
        if attached == 0:
            raise RoutingError(
                f"node {node} has no outgoing channels in the CDG; cannot be "
                f"a flow source"
            )
        self._source_terminals[node] = terminal
        return terminal

    def add_sink_terminal(self, node: int) -> Terminal:
        """Add (or return) the sink terminal of a network node."""
        if node in self._sink_terminals:
            return self._sink_terminals[node]
        terminal = Terminal(node, "sink")
        self._graph.add_node(terminal)
        in_channels = set(self.topology.in_channels(node))
        attached = 0
        for resource in self.cdg.vertices:
            if physical(resource) in in_channels:
                self._graph.add_edge(resource, terminal)
                attached += 1
        if attached == 0:
            raise RoutingError(
                f"node {node} has no incoming channels in the CDG; cannot be "
                f"a flow destination"
            )
        self._sink_terminals[node] = terminal
        return terminal

    def add_flow_terminals(self, flows: Iterable) -> None:
        """Add the terminals needed by every flow of an iterable of flows."""
        for flow in flows:
            self.add_source_terminal(flow.source)
            self.add_sink_terminal(flow.destination)

    def source_terminal(self, node: int) -> Terminal:
        if node not in self._source_terminals:
            raise RoutingError(f"no source terminal for node {node}; add it first")
        return self._source_terminals[node]

    def sink_terminal(self, node: int) -> Terminal:
        if node not in self._sink_terminals:
            raise RoutingError(f"no sink terminal for node {node}; add it first")
        return self._sink_terminals[node]

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.DiGraph:
        return self._graph

    @property
    def num_vertices(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self._graph.number_of_edges()

    def resource_vertices(self) -> List[Resource]:
        """The channel-resource vertices (terminals excluded)."""
        return [vertex for vertex in self._graph.nodes
                if not isinstance(vertex, Terminal)]

    def edges(self) -> List[Tuple[FlowVertex, FlowVertex]]:
        return list(self._graph.edges)

    # ------------------------------------------------------------------
    # path utilities
    # ------------------------------------------------------------------
    @staticmethod
    def strip_terminals(path: Sequence[FlowVertex]) -> List[Resource]:
        """Drop the terminal vertices from a flow-graph path.

        The remaining sequence of channel resources is the route proper.
        """
        return [vertex for vertex in path if not isinstance(vertex, Terminal)]

    def path_exists(self, source: int, destination: int) -> bool:
        """True when the CDG admits some path between two network nodes."""
        src = self.add_source_terminal(source)
        dst = self.add_sink_terminal(destination)
        return nx.has_path(self._graph, src, dst)

    def shortest_hop_path(self, source: int, destination: int) -> List[Resource]:
        """The minimum-hop conforming route between two network nodes.

        Raises :class:`RoutingError` when the acyclic CDG admits no path —
        a correctly constructed acyclic CDG of a connected topology is
        always "connected" in this sense (every source can still reach every
        destination), so a failure here indicates an over-aggressive ad hoc
        cycle breaking.
        """
        src = self.add_source_terminal(source)
        dst = self.add_sink_terminal(destination)
        try:
            path = nx.shortest_path(self._graph, src, dst)
        except nx.NetworkXNoPath as exc:
            raise RoutingError(
                f"no CDG-conforming path from {source} to {destination} under "
                f"{self.cdg.name!r}"
            ) from exc
        return self.strip_terminals(path)

    def minimal_hop_count(self, source: int, destination: int) -> int:
        """Number of channels on the shortest conforming route."""
        return len(self.shortest_hop_path(source, destination))

    def all_reachable(self, flows: Iterable) -> bool:
        """True when every flow of the iterable has at least one route."""
        return all(self.path_exists(flow.source, flow.destination) for flow in flows)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"FlowGraph over CDG {self.cdg.name!r}: {self.num_vertices} vertices "
            f"({len(self._source_terminals)} sources, "
            f"{len(self._sink_terminals)} sinks), {self.num_edges} edges"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def route_node_path(route: Sequence[Resource]) -> List[int]:
    """Convert a route (sequence of channel resources) into the node path.

    An empty route maps to an empty list; otherwise the node path has one
    more entry than the route has channels.
    """
    if not route:
        return []
    channels = [physical(resource) for resource in route]
    for upstream, downstream in zip(channels, channels[1:]):
        if upstream.dst != downstream.src:
            raise RoutingError(
                f"route is not a chain of consecutive channels: "
                f"{upstream} then {downstream}"
            )
    return [channels[0].src] + [channel.dst for channel in channels]
