"""Channels (directed links) of a network-on-chip topology.

A *channel* is a unidirectional physical link from one router to an adjacent
router.  The two directions between a pair of adjacent routers are distinct
channels (``B -> C`` and ``C -> B`` in the paper's notation ``BC`` and
``CB``).  Channels are the vertices of the channel-dependence graph, the
resources whose load defines the maximum channel load (MCL), and the edges of
the flow network on which routes are selected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exceptions import TopologyError


@dataclass(frozen=True, order=True)
class Channel:
    """A unidirectional link between two adjacent routers.

    Attributes
    ----------
    src:
        Node index of the upstream (sending) router.
    dst:
        Node index of the downstream (receiving) router.

    The channel is hashable and totally ordered so that it can be used as a
    dictionary key, a graph vertex and a stable sort key.  Every graph in
    the library is keyed by channels, so the hash (the value the generated
    dataclass hash would compute) is taken once, at construction.
    """

    src: int
    dst: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.src, self.dst)))
        if self.src == self.dst:
            raise TopologyError(f"channel cannot be a self loop: {self.src}")
        if self.src < 0 or self.dst < 0:
            raise TopologyError(
                f"channel endpoints must be non-negative: ({self.src}, {self.dst})"
            )

    def __hash__(self) -> int:
        return self._hash

    @property
    def reverse(self) -> "Channel":
        """The channel in the opposite direction between the same routers."""
        return Channel(self.dst, self.src)

    def label(self, namer=None) -> str:
        """Human readable name, e.g. ``"AB"`` on the paper's 3x3 mesh.

        Parameters
        ----------
        namer:
            Optional callable mapping a node index to a string.  When not
            given the node indices themselves are used.
        """
        if namer is None:
            return f"{self.src}->{self.dst}"
        return f"{namer(self.src)}{namer(self.dst)}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True, order=True)
class VirtualChannel:
    """A virtual channel: one lane of a physical channel.

    When the network has ``z`` virtual channels per physical link, the
    channel-dependence graph is expanded so that each physical channel
    contributes ``z`` vertices, one per virtual channel (Section 3.7 of the
    paper).  Routes selected on the expanded graph statically allocate a
    virtual channel on every hop.
    """

    channel: Channel
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise TopologyError(f"virtual channel index must be >= 0: {self.index}")

    @property
    def src(self) -> int:
        return self.channel.src

    @property
    def dst(self) -> int:
        return self.channel.dst

    def label(self, namer=None) -> str:
        return f"{self.channel.label(namer)}_{self.index}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.channel}#{self.index}"


def expand_virtual_channels(channel: Channel, num_vcs: int) -> list[VirtualChannel]:
    """Return the ``num_vcs`` virtual channels of a physical channel."""
    if num_vcs <= 0:
        raise TopologyError(f"number of virtual channels must be positive: {num_vcs}")
    return [VirtualChannel(channel, vc) for vc in range(num_vcs)]


def physical(resource) -> Channel:
    """Return the physical channel underlying *resource*.

    Accepts either a :class:`Channel` (returned unchanged) or a
    :class:`VirtualChannel` (its physical channel is returned).  This lets
    load-accounting code treat routes expressed over physical channels and
    routes expressed over virtual channels uniformly: load always accumulates
    on the physical link.
    """
    if isinstance(resource, Channel):
        return resource
    if isinstance(resource, VirtualChannel):
        return resource.channel
    raise TopologyError(f"not a channel resource: {resource!r}")


def virtual_index(resource) -> Optional[int]:
    """Return the VC index of *resource* or ``None`` for a physical channel."""
    if isinstance(resource, VirtualChannel):
        return resource.index
    if isinstance(resource, Channel):
        return None
    raise TopologyError(f"not a channel resource: {resource!r}")
