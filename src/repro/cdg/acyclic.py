"""Ad hoc cycle breaking for channel dependence graphs.

Besides the systematic turn models, the paper breaks CDG cycles "in an ad hoc
or random fashion" (Figure 3-4): typically more dependence edges have to be
removed than with a turn model (12 versus 8 on the 3x3 mesh), but the
resulting acyclic CDG sometimes admits better routes — Tables 6.1 and 6.2
include two ad hoc CDGs ("Ad Hoc 1" and "Ad Hoc 2") alongside the turn-model
ones, and for several workloads an ad hoc CDG attains the overall minimum
MCL.

The ad hoc CDGs come from :func:`break_cycles_up_down`: a seeded up*/down*
ordering of the nodes, which keeps every node pair routable.  The seed makes
"Ad Hoc 1" and "Ad Hoc 2" reproducible.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..topology.base import Topology
from .cdg import ChannelDependenceGraph


def break_cycles_up_down(cdg: ChannelDependenceGraph, seed: Optional[int] = None,
                         in_place: bool = False) -> ChannelDependenceGraph:
    """Break cycles with a randomised up*/down*-style node ordering.

    A random root node is chosen (from *seed*) and every node is ranked by
    its breadth-first distance from the root (ties broken by node index).
    A channel is an **up** channel when it moves to a lower-ranked node and a
    **down** channel otherwise; every dependence edge from a down channel to
    an up channel is deleted.

    * The result is acyclic: an all-up cycle would strictly decrease the
      rank forever and an all-down cycle strictly increase it, and down-to-up
      transitions are forbidden.
    * Every source can still reach every destination: the breadth-first tree
      path up to the root followed by the tree path down to the destination
      only ever uses up channels before down channels.

    Unlike a raw feedback-arc-set removal it never disconnects a
    source/destination pair, while still removing more dependence edges than
    a turn model (matching the paper's observation about ad hoc CDGs).
    """
    from ..topology.links import physical

    result = cdg if in_place else cdg.copy(name=f"{cdg.name}/adhoc-updown-{seed}")
    rng = random.Random(seed)
    topology = result.topology
    root = rng.randrange(topology.num_nodes)
    levels = topology._hop_lengths_from(root)

    def rank(node: int) -> Tuple[int, int]:
        return levels.get(node, topology.num_nodes), node

    def is_up(resource) -> bool:
        channel = physical(resource)
        return rank(channel.dst) < rank(channel.src)

    to_remove = [
        (upstream, downstream)
        for upstream, downstream in result.edges
        if (not is_up(upstream)) and is_up(downstream)
    ]
    result.remove_edges(to_remove)
    result.require_acyclic()
    return result


def ad_hoc_cdg(topology: Topology, seed: int,
               num_vcs: int = 1) -> ChannelDependenceGraph:
    """Build an ad hoc acyclic CDG of *topology* by up*/down* cycle breaking.

    *seed* controls which edges are sacrificed; "Ad Hoc 1" and "Ad Hoc 2"
    of the experiment harness are seeds 1 and 2.
    """
    base = ChannelDependenceGraph.from_topology(
        topology, num_vcs=num_vcs, name=f"adhoc-{seed}"
    )
    acyclic = break_cycles_up_down(base, seed=seed, in_place=True)
    acyclic.name = f"adhoc-{seed}"
    return acyclic
