"""Channel-load analysis: MCL, load maps and load-balance statistics.

The maximum channel load (MCL, Definition 3) is the cost function BSOR
minimises: the load of the single most loaded link bounds the saturation
throughput of the whole network, so lowering it raises the achievable
application throughput.  This module reports MCL and the companion
load statistics the paper's discussion section mentions (average load,
number of near-critical links, load imbalance) for any route set, so
baseline and BSOR route sets can be compared on equal footing (Table 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..routing.base import RouteSet
from ..topology.base import Topology
from ..topology.links import Channel


@dataclass
class ChannelLoadReport:
    """Aggregate load statistics of one route set."""

    loads: Dict[Channel, float]
    mcl: float
    average_load: float
    loaded_channels: int
    total_channels: int
    bottlenecks: List[Channel]
    near_critical: List[Channel]
    gini: float

    def describe(self, topology: Optional[Topology] = None) -> str:
        def label(channel: Channel) -> str:
            if topology is None:
                return str(channel)
            return topology.channel_label(channel)

        lines = [
            f"MCL = {self.mcl:g}",
            f"average load over used channels = {self.average_load:g}",
            f"used channels: {self.loaded_channels}/{self.total_channels}",
            f"bottleneck channels: {[label(c) for c in self.bottlenecks]}",
            f"near-critical channels (>= 90% of MCL): "
            f"{len(self.near_critical)}",
            f"load imbalance (Gini) = {self.gini:.3f}",
        ]
        return "\n".join(lines)


def _gini_coefficient(values: Sequence[float]) -> float:
    """Gini coefficient of a load distribution (0 = perfectly even)."""
    data = sorted(values)
    n = len(data)
    total = sum(data)
    if n == 0 or total == 0:
        return 0.0
    cumulative = 0.0
    for rank, value in enumerate(data, start=1):
        cumulative += rank * value
    return (2.0 * cumulative) / (n * total) - (n + 1.0) / n


def load_report(route_set: RouteSet,
                near_critical_fraction: float = 0.9) -> ChannelLoadReport:
    """Full channel-load report for a route set.

    ``near_critical_fraction`` controls which links count as "close to the
    MCL" — the paper's discussion notes that many links near the MCL hurt
    performance even when the MCL itself is low.
    """
    loads = route_set.channel_loads()
    topology = route_set.topology
    mcl = max(loads.values(), default=0.0)
    used = [load for load in loads.values() if load > 0]
    average = sum(used) / len(used) if used else 0.0
    bottlenecks = [channel for channel, load in loads.items() if load == mcl and mcl > 0]
    near_critical = [
        channel for channel, load in loads.items()
        if mcl > 0 and load >= near_critical_fraction * mcl
    ]
    return ChannelLoadReport(
        loads=loads,
        mcl=mcl,
        average_load=average,
        loaded_channels=len(used),
        total_channels=topology.num_channels,
        bottlenecks=sorted(bottlenecks),
        near_critical=sorted(near_critical),
        gini=_gini_coefficient([loads.get(ch, 0.0) for ch in topology.channels]),
    )


def recompute_mcl_with_demands(route_set: RouteSet,
                               demands: Dict[str, float]) -> float:
    """MCL of existing routes under *different* per-flow demands.

    This is the static core of the bandwidth-variation experiments: routes
    are fixed from the original estimates, demands move at run time, and we
    ask how the bottleneck load responds.
    """
    loads: Dict[Channel, float] = {}
    for route in route_set:
        demand = demands.get(route.flow.name, route.flow.demand)
        for channel in route.channels:
            loads[channel] = loads.get(channel, 0.0) + demand
    return max(loads.values(), default=0.0)
