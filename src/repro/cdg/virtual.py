"""Virtual-channel expanded CDGs and virtual networks (Section 3.7).

With ``z`` virtual channels per physical link the deadlock resources are
buffer lanes, not links, and the CDG is expanded so each link contributes
``z`` vertices.  The paper describes three ways to obtain an acyclic
expanded CDG:

1. apply a turn model uniformly to every virtual channel
   (:func:`repro.cdg.turn_model.turn_model_cdg` with ``num_vcs > 1``);
2. allow **all** turns provided the route switches to a strictly higher
   virtual channel on otherwise-prohibited turns (Figure 3-6(c));
   :func:`vc_escalation_cdg` implements this;
3. split the network into **virtual networks**, one (or more) virtual
   channels each, give every virtual network its own independently
   cycle-broken CDG, and let each flow pick one virtual network for its
   entire route (Figure 3-7); :func:`virtual_network_cdg` implements this.

All three return a single :class:`ChannelDependenceGraph` over
:class:`VirtualChannel` vertices, so the flow-graph derivation and the route
selectors treat them uniformly.  A route selected on any of them implies a
**static allocation of virtual channels** along the route.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..exceptions import CDGError
from ..topology.base import Topology
from ..topology.links import VirtualChannel, virtual_index
from .acyclic import ad_hoc_cdg
from .cdg import ChannelDependenceGraph, Resource
from .turn_model import TurnModel, apply_turn_model


def expanded_cdg(topology: Topology, num_vcs: int) -> ChannelDependenceGraph:
    """The full (cyclic) VC-expanded CDG: ``z`` vertices per link, ``z^2``
    edges between consecutive links."""
    if num_vcs < 1:
        raise CDGError(f"number of virtual channels must be >= 1: {num_vcs}")
    return ChannelDependenceGraph.from_topology(
        topology, num_vcs=num_vcs, name=f"expanded-{num_vcs}vc"
    )


def vc_escalation_cdg(topology: Topology, num_vcs: int,
                      model: TurnModel = TurnModel.WEST_FIRST) -> ChannelDependenceGraph:
    """All turns allowed when the route escalates to a higher VC (Fig. 3-6(c)).

    Virtual-channel indices are constrained to be non-decreasing along every
    dependence edge; turns allowed by *model* keep every non-decreasing
    VC-to-VC dependence, while turns prohibited by *model* keep only the
    dependences that move to a strictly higher virtual-channel index.  Any
    cycle would have to take at least one prohibited turn (the turn-model
    argument), which strictly increases the VC index, while no edge ever
    decreases it — so no cycle can close and the result is acyclic.  Every
    turn remains usable somewhere, giving the selector more path and
    VC-allocation freedom than the uniform turn-model expansion.
    """
    if num_vcs < 2:
        raise CDGError(
            f"VC escalation needs at least 2 virtual channels, got {num_vcs}"
        )
    cdg = expanded_cdg(topology, num_vcs)
    cdg.name = f"vc-escalation-{model.value}-{num_vcs}vc"
    acyclic = apply_turn_model(cdg, model, in_place=True, allow_vc_switch_turns=True)
    acyclic.name = f"vc-escalation-{model.value}-{num_vcs}vc"
    acyclic.require_acyclic()
    return acyclic


def virtual_network_cdg(topology: Topology,
                        strategies: Sequence,
                        name: Optional[str] = None) -> ChannelDependenceGraph:
    """Independent acyclic virtual networks, one per virtual channel (Fig. 3-7).

    Parameters
    ----------
    strategies:
        One entry per virtual network.  Each entry is either a
        :class:`TurnModel` or an integer seed for an ad hoc (up*/down*)
        cycle breaking.  The number of entries is the number of virtual
        channels.

    The returned CDG has a vertex for every (channel, vc) pair, and the only
    dependence edges are *within* a virtual network (same vc index), each
    network cycle-broken by its own strategy.  A flow's path therefore stays
    on one virtual channel index end to end, exactly the virtual-network
    construction of Figure 3-7.
    """
    num_vcs = len(strategies)
    if num_vcs < 1:
        raise CDGError("need at least one virtual network strategy")

    combined = ChannelDependenceGraph(
        topology, num_vcs=num_vcs,
        name=name or f"virtual-networks-{num_vcs}vc",
    )
    graph = combined.graph

    for vc_index, strategy in enumerate(strategies):
        if isinstance(strategy, TurnModel):
            single = ChannelDependenceGraph.from_topology(
                topology, num_vcs=1, name=f"vnet-{vc_index}"
            )
            single = apply_turn_model(single, strategy, in_place=True)
        elif isinstance(strategy, int):
            single = ad_hoc_cdg(topology, seed=strategy, num_vcs=1)
        else:
            raise CDGError(
                f"virtual network strategy must be a TurnModel or an int seed, "
                f"got {strategy!r}"
            )
        single.require_acyclic()
        for channel in single.vertices:
            graph.add_node(VirtualChannel(channel, vc_index))
        for upstream, downstream in single.edges:
            graph.add_edge(
                VirtualChannel(upstream, vc_index),
                VirtualChannel(downstream, vc_index),
            )

    combined.require_acyclic()
    return combined


def virtual_networks_of(cdg: ChannelDependenceGraph) -> List[int]:
    """The distinct virtual-channel indices present in an expanded CDG."""
    indices = set()
    for resource in cdg.vertices:
        vc = virtual_index(resource)
        if vc is not None:
            indices.add(vc)
    return sorted(indices)


def route_vc_profile(route: Sequence[Resource]) -> List[Optional[int]]:
    """The virtual-channel index used at every hop of a route.

    Entries are ``None`` for hops expressed over physical channels (single
    VC networks).  Used by the simulator's static VC allocation and by tests
    asserting that virtual-network routes never switch VC.
    """
    return [virtual_index(resource) for resource in route]


def switches_virtual_channel(route: Sequence[Resource]) -> bool:
    """True when a route changes virtual-channel index at some hop."""
    profile = [vc for vc in route_vc_profile(route) if vc is not None]
    return any(a != b for a, b in zip(profile, profile[1:]))
