"""Abstract topology interface.

A topology is a directed graph of routers (nodes) connected by channels
(directed links).  Concrete topologies (:class:`~repro.topology.mesh.Mesh2D`,
:class:`~repro.topology.torus.Torus2D`, :class:`~repro.topology.ring.Ring`)
provide adjacency, coordinates and direction information; everything above
this layer (CDG construction, route selection, simulation) is written against
this interface so that, as the paper notes, the routing technique is
"effectively topology independent".
"""

from __future__ import annotations

import copy
import string
from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from ..exceptions import TopologyError
from .directions import Direction
from .links import Channel


class Topology(ABC):
    """Base class for network-on-chip topologies.

    Subclasses must populate the adjacency structure by calling
    :meth:`_add_channel` during construction and implement the coordinate /
    direction queries.  Channels are always added in pairs by convention
    (both directions of a physical bidirectional wire), although nothing in
    the base class enforces it.  :meth:`_add_channel` and
    :meth:`_remove_channel` are the only mutators; both drop the canonical
    key fragment :mod:`repro.runner.fingerprint` keeps on the topology.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise TopologyError(f"topology must have at least one node: {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._channels: List[Channel] = []
        self._channel_set: set[Channel] = set()
        self._out: Dict[int, List[Channel]] = {n: [] for n in range(num_nodes)}
        self._in: Dict[int, List[Channel]] = {n: [] for n in range(num_nodes)}
        self._key_fragment: Optional[str] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _add_channel(self, src: int, dst: int) -> Channel:
        """Register the directed channel ``src -> dst``."""
        self._check_node(src)
        self._check_node(dst)
        channel = Channel(src, dst)
        if channel in self._channel_set:
            raise TopologyError(f"duplicate channel: {channel}")
        self._channel_set.add(channel)
        self._channels.append(channel)
        self._out[src].append(channel)
        self._in[dst].append(channel)
        self._key_fragment = None
        return channel

    def _add_bidirectional(self, a: int, b: int) -> Tuple[Channel, Channel]:
        """Register both directions of a physical wire between *a* and *b*."""
        return self._add_channel(a, b), self._add_channel(b, a)

    def _remove_channel(self, channel: Channel) -> None:
        """Unregister *channel* from every adjacency structure."""
        if channel not in self._channel_set:
            raise TopologyError(f"no channel {channel} to remove")
        self._channel_set.remove(channel)
        self._channels.remove(channel)
        self._out[channel.src].remove(channel)
        self._in[channel.dst].remove(channel)
        self._key_fragment = None

    def without_channels(self, channels: Iterable[Channel]) -> "Topology":
        """A degraded copy of this topology with *channels* removed.

        The copy keeps its concrete class (a degraded mesh is still a
        :class:`~repro.topology.mesh.Mesh2D`), so coordinate and direction
        queries — and ``isinstance`` checks inside routers — keep working.
        Node indices are preserved; a node that loses all of its channels
        simply becomes isolated.  Removing a channel that does not exist
        raises :class:`TopologyError`.
        """
        # channels are immutable and subclasses add only scalars, so a copy
        # of the four containers shares no mutable state with the original
        degraded = copy.copy(self)
        degraded._channels = list(self._channels)
        degraded._channel_set = set(self._channel_set)
        degraded._out = {node: list(out) for node, out in self._out.items()}
        degraded._in = {node: list(into) for node, into in self._in.items()}
        for channel in channels:
            degraded._remove_channel(channel)
        return degraded

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise TopologyError(
                f"node {node} outside topology of {self._num_nodes} nodes"
            )

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of routers in the network."""
        return self._num_nodes

    @property
    def nodes(self) -> range:
        """All node indices, ``0 .. num_nodes - 1``."""
        return range(self._num_nodes)

    @property
    def channels(self) -> Sequence[Channel]:
        """All directed channels, in insertion order."""
        return tuple(self._channels)

    @property
    def num_channels(self) -> int:
        return len(self._channels)

    def has_channel(self, src: int, dst: int) -> bool:
        """True when a directed channel ``src -> dst`` exists."""
        return Channel(src, dst) in self._channel_set

    def channel(self, src: int, dst: int) -> Channel:
        """Return the channel ``src -> dst`` or raise :class:`TopologyError`."""
        ch = Channel(src, dst)
        if ch not in self._channel_set:
            raise TopologyError(f"no channel {src} -> {dst} in this topology")
        return ch

    def out_channels(self, node: int) -> Sequence[Channel]:
        """Channels leaving *node*."""
        self._check_node(node)
        return tuple(self._out[node])

    def in_channels(self, node: int) -> Sequence[Channel]:
        """Channels entering *node*."""
        self._check_node(node)
        return tuple(self._in[node])

    def neighbors(self, node: int) -> List[int]:
        """Nodes reachable from *node* in one hop."""
        return [ch.dst for ch in self.out_channels(node)]

    # ------------------------------------------------------------------
    # geometry hooks for orthogonal topologies
    # ------------------------------------------------------------------
    @abstractmethod
    def coordinates(self, node: int) -> Tuple[int, ...]:
        """Coordinates of *node* in the topology's natural coordinate system."""

    @abstractmethod
    def node_at(self, *coords: int) -> int:
        """Inverse of :meth:`coordinates`."""

    @abstractmethod
    def direction_of(self, channel: Channel) -> Direction:
        """The cardinal direction of travel along *channel*.

        Topologies that are not orthogonal may raise :class:`TopologyError`.
        """

    # ------------------------------------------------------------------
    # derived graph views and distances
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """Directed :mod:`networkx` view of the topology.

        Nodes are the router indices and edges carry the :class:`Channel`
        object under the ``"channel"`` attribute.
        """
        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes)
        for ch in self._channels:
            graph.add_edge(ch.src, ch.dst, channel=ch)
        return graph

    def shortest_path_length(self, src: int, dst: int) -> int:
        """Minimal hop count from *src* to *dst*."""
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return 0
        lengths = self._hop_lengths_from(src)
        if dst not in lengths:
            raise TopologyError(f"no path from {src} to {dst}")
        return lengths[dst]

    def _hop_lengths_from(self, src: int) -> Dict[int, int]:
        """Breadth-first hop distances from *src* to every reachable node."""
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for ch in self._out[node]:
                    if ch.dst not in dist:
                        dist[ch.dst] = dist[node] + 1
                        nxt.append(ch.dst)
            frontier = nxt
        return dist

    def is_connected(self) -> bool:
        """True when every node can reach every other node."""
        for node in self.nodes:
            if len(self._hop_lengths_from(node)) != self.num_nodes:
                return False
        return True

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    def node_label(self, node: int) -> str:
        """A short human-readable label for *node*.

        Networks of at most 26 nodes use the paper's letter naming (node 0 is
        ``A``, node 1 is ``B``, ...); larger networks fall back to ``N<idx>``.
        """
        self._check_node(node)
        if self._num_nodes <= len(string.ascii_uppercase):
            return string.ascii_uppercase[node]
        return f"N{node}"

    def channel_label(self, channel: Channel) -> str:
        """Label such as ``"AB"`` for the channel from node A to node B."""
        return channel.label(self.node_label)

    def find_channel_by_label(self, label: str) -> Optional[Channel]:
        """Find a channel whose :meth:`channel_label` equals *label*."""
        for ch in self._channels:
            if self.channel_label(ch) == label:
                return ch
        return None

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, "
            f"channels={self.num_channels})"
        )

    def describe(self) -> str:
        """Multi-line human readable description of the topology."""
        lines = [repr(self)]
        for node in self.nodes:
            outs = ", ".join(
                f"{self.node_label(ch.dst)}({self.direction_of(ch).value})"
                for ch in self.out_channels(node)
            )
            lines.append(f"  {self.node_label(node)} -> {outs}")
        return "\n".join(lines)


def pairwise_channels(topology: Topology, path: Iterable[int]) -> List[Channel]:
    """Convert a node path into the list of channels it traverses.

    Raises :class:`TopologyError` if two consecutive nodes of the path are
    not adjacent in *topology*.
    """
    nodes = list(path)
    channels: List[Channel] = []
    for a, b in zip(nodes, nodes[1:]):
        channels.append(topology.channel(a, b))
    return channels
