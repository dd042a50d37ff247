"""Synthetic traffic patterns: bit-complement, transpose, shuffle and friends.

The paper evaluates BSOR on three classical bit-permutation benchmarks
(Section 5.1).  Each pattern maps a source address to a destination address
by permuting or complementing the bits of the ``b = log2(N)``-bit node
address.  Every node whose image differs from itself contributes one flow;
all flows of a synthetic pattern share the same bandwidth demand (Section
6.1: "flows have the same average bandwidth demands in all the test cases").

The module also provides uniform-random and hotspot patterns which are useful
for tests and for users of the library, although they do not appear in the
paper's evaluation.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..exceptions import TrafficError
from ..registry import Registry, Spec
from .flow import FlowSet

#: The bit-permutation benchmarks by name: factories taking ``(num_nodes,
#: demand=)``.  Used by the planner, the experiment harness and the examples.
_PATTERNS: Registry[Spec] = Registry(
    kind="synthetic pattern", plural="patterns",
    noun="synthetic pattern name", error=TrafficError,
)


def _address_bits(num_nodes: int) -> int:
    """Number of address bits; requires *num_nodes* to be a power of two."""
    if num_nodes <= 1:
        raise TrafficError(f"synthetic patterns need at least 2 nodes: {num_nodes}")
    bits = num_nodes.bit_length() - 1
    if 1 << bits != num_nodes:
        raise TrafficError(
            f"synthetic bit-permutation patterns require a power-of-two node "
            f"count, got {num_nodes}"
        )
    return bits


def _pattern_flow_set(num_nodes: int, destination_of: Callable[[int], int],
                      demand: float, name: str) -> FlowSet:
    """Build a flow set from a source -> destination mapping function."""
    if demand <= 0:
        raise TrafficError(f"synthetic pattern demand must be positive: {demand}")
    flow_set = FlowSet(name=name)
    for source in range(num_nodes):
        destination = destination_of(source)
        if not 0 <= destination < num_nodes:
            raise TrafficError(
                f"pattern mapped node {source} outside the network: {destination}"
            )
        if destination != source:
            flow_set.add_flow(source, destination, demand)
    return flow_set


# ----------------------------------------------------------------------
# the paper's three synthetic benchmarks
# ----------------------------------------------------------------------
@_PATTERNS.register(
    "bit-complement", display_name="Bit-complement",
    aliases=("bitcomp", "complement"),
    summary="Every node sends to the bitwise complement of its address.")
def bit_complement(num_nodes: int, demand: float = 1.0) -> FlowSet:
    """Bit-complement: ``d_i = NOT s_i`` for every address bit.

    Arises in vector reversals and distributed matrix multiplication.  The
    pattern is highly symmetric: every node sends to the node whose address
    is the bitwise complement of its own, so all traffic crosses the centre
    of the mesh.
    """
    bits = _address_bits(num_nodes)
    mask = (1 << bits) - 1

    def destination_of(source: int) -> int:
        return (~source) & mask

    return _pattern_flow_set(num_nodes, destination_of, demand, "bit-complement")


@_PATTERNS.register(
    "transpose", display_name="Transpose",
    summary="Swap the address halves: node (x, y) sends to node (y, x).")
def transpose(num_nodes: int, demand: float = 1.0) -> FlowSet:
    """Transpose: ``d_i = s_(i + b/2 mod b)`` — swap the two halves of the address.

    Models matrix-transpose / corner-turn operations.  On a square mesh with
    row-major numbering this sends node ``(x, y)`` to node ``(y, x)``.
    Requires an even number of address bits (i.e. a square power-of-two
    network).
    """
    bits = _address_bits(num_nodes)
    if bits % 2 != 0:
        raise TrafficError(
            f"transpose requires an even number of address bits, got {bits} "
            f"(network of {num_nodes} nodes)"
        )
    half = bits // 2
    low_mask = (1 << half) - 1

    def destination_of(source: int) -> int:
        low = source & low_mask
        high = source >> half
        return (low << half) | high

    return _pattern_flow_set(num_nodes, destination_of, demand, "transpose")


@_PATTERNS.register(
    "shuffle", display_name="Shuffle", aliases=("perfect-shuffle",),
    summary="Perfect shuffle: rotate the address left by one bit.")
def shuffle(num_nodes: int, demand: float = 1.0) -> FlowSet:
    """Shuffle: ``d_i = s_(i - 1 mod b)`` — rotate the address left by one bit.

    The perfect-shuffle permutation that appears in sorting networks and FFT
    data flows.
    """
    bits = _address_bits(num_nodes)
    mask = (1 << bits) - 1

    def destination_of(source: int) -> int:
        rotated = ((source << 1) | (source >> (bits - 1))) & mask
        return rotated

    return _pattern_flow_set(num_nodes, destination_of, demand, "shuffle")


@_PATTERNS.register(
    "bit-reverse", display_name="Bit-reverse",
    aliases=("bitrev", "reverse"),
    summary="Mirror the address bits (FFT butterfly exchanges); not in "
            "the paper's evaluation.")
def bit_reverse(num_nodes: int, demand: float = 1.0) -> FlowSet:
    """Bit-reverse: ``d_i = s_(b - 1 - i)`` — mirror the address bits.

    Not part of the paper's evaluation, but a standard companion pattern
    (FFT butterfly exchanges) that exercises the same machinery.
    """
    bits = _address_bits(num_nodes)

    def destination_of(source: int) -> int:
        result = 0
        for position in range(bits):
            if source & (1 << position):
                result |= 1 << (bits - 1 - position)
        return result

    return _pattern_flow_set(num_nodes, destination_of, demand, "bit-reverse")


# ----------------------------------------------------------------------
# additional patterns for tests and library users
# ----------------------------------------------------------------------
def uniform_random(num_nodes: int, flows_per_node: int = 1, demand: float = 1.0,
                   seed: Optional[int] = None) -> FlowSet:
    """Uniform-random pattern: each node sends to random distinct targets."""
    if num_nodes < 2:
        raise TrafficError(f"uniform pattern needs at least 2 nodes: {num_nodes}")
    if flows_per_node < 1:
        raise TrafficError(
            f"flows_per_node must be at least 1: {flows_per_node}"
        )
    if flows_per_node > num_nodes - 1:
        raise TrafficError(
            f"cannot pick {flows_per_node} distinct destinations among "
            f"{num_nodes - 1} candidates"
        )
    rng = random.Random(seed)
    flow_set = FlowSet(name="uniform-random")
    for source in range(num_nodes):
        candidates = [node for node in range(num_nodes) if node != source]
        for destination in rng.sample(candidates, flows_per_node):
            flow_set.add_flow(source, destination, demand)
    return flow_set


def hotspot(num_nodes: int, hotspot_node: int, demand: float = 1.0,
            background_demand: float = 0.0) -> FlowSet:
    """Hotspot pattern: every node sends to one designated node.

    Optionally adds light uniform "background" flows from the hotspot back to
    every node (when ``background_demand > 0``) so that the hotspot node also
    injects traffic.
    """
    if not 0 <= hotspot_node < num_nodes:
        raise TrafficError(
            f"hotspot node {hotspot_node} outside network of {num_nodes} nodes"
        )
    flow_set = FlowSet(name="hotspot")
    for source in range(num_nodes):
        if source != hotspot_node:
            flow_set.add_flow(source, hotspot_node, demand)
    if background_demand > 0:
        for destination in range(num_nodes):
            if destination != hotspot_node:
                flow_set.add_flow(hotspot_node, destination, background_demand)
    return flow_set


def neighbor(num_nodes: int, stride: int = 1, demand: float = 1.0) -> FlowSet:
    """Nearest-neighbour (stride) pattern: node ``i`` sends to ``i + stride``."""
    if stride % num_nodes == 0:
        raise TrafficError(f"stride {stride} is a multiple of the node count")
    flow_set = FlowSet(name=f"neighbor-{stride}")
    for source in range(num_nodes):
        destination = (source + stride) % num_nodes
        flow_set.add_flow(source, destination, demand)
    return flow_set


#: Every registered pattern's :class:`~repro.registry.Spec`, in
#: registration order.
pattern_specs = _PATTERNS.specs


def available_pattern_names() -> List[str]:
    """Canonical synthetic pattern names, sorted."""
    return sorted(_PATTERNS.names())


def normalize_pattern_name(name: str) -> str:
    """Resolve a pattern name or alias to its canonical form.

    Folds case, surrounding whitespace and ``_``/``-`` spelling, then
    resolves aliases.  Raises :class:`TrafficError` naming every registered
    pattern (and the closest match, when one exists) for unknown names, so
    CLI and config errors are self-explanatory.
    """
    return _PATTERNS.lookup(name).name


def synthetic_by_name(name: str, num_nodes: int, demand: float = 1.0) -> FlowSet:
    """Look up a synthetic pattern by its canonical name or an alias."""
    return _PATTERNS.lookup(name).factory(num_nodes, demand=demand)


def pattern_permutation(flow_set: FlowSet, num_nodes: int) -> List[Optional[int]]:
    """Destination of every node under a (partial) permutation pattern.

    Returns a list indexed by source node; entries are ``None`` for nodes
    that do not inject (fixed points of the permutation).  Raises
    :class:`TrafficError` if some node has more than one destination, since
    then the flow set is not a permutation pattern.
    """
    destinations: List[Optional[int]] = [None] * num_nodes
    for flow in flow_set:
        if flow.source >= num_nodes:
            raise TrafficError(
                f"flow {flow.name} source {flow.source} outside network"
            )
        if destinations[flow.source] is not None:
            raise TrafficError(
                f"node {flow.source} has multiple destinations; "
                f"not a permutation pattern"
            )
        destinations[flow.source] = flow.destination
    return destinations
