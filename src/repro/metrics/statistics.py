"""Latency / throughput statistics collected from simulations.

The simulator reports, per run, the packets delivered and their latencies;
the experiment harness turns those into the two curves every figure of
Chapter 6 plots:

* **throughput** — packets delivered per cycle, averaged over the
  measurement window ("average delivery rate");
* **average latency** — cycles from injection of a packet's head flit to
  reception of its tail flit, averaged over delivered packets.

This module holds the small, simulator-agnostic statistic containers and
the percentile helper the experiment harness uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class SimulationStatistics:
    """Aggregate results of one simulation run."""

    cycles: int
    warmup_cycles: int
    packets_injected: int
    packets_delivered: int
    flits_delivered: int
    total_latency: float
    per_flow_latency: Dict[str, float] = field(default_factory=dict)
    per_flow_delivered: Dict[str, int] = field(default_factory=dict)
    dropped_at_source: int = 0
    #: flits purged from buffers / source queues by mid-run link failures
    flits_lost_to_faults: int = 0
    #: packets that had at least one flit purged by a mid-run failure
    packets_lost_to_faults: int = 0
    #: packets diverted (backlog or fresh arrival) because their flow died
    packets_dropped_faults: int = 0

    @property
    def measurement_cycles(self) -> int:
        return max(self.cycles - self.warmup_cycles, 1)

    @property
    def throughput(self) -> float:
        """Packets delivered per cycle during the measurement window."""
        return self.packets_delivered / self.measurement_cycles

    @property
    def flit_throughput(self) -> float:
        """Flits delivered per cycle during the measurement window."""
        return self.flits_delivered / self.measurement_cycles

    @property
    def average_latency(self) -> float:
        """Mean packet latency (cycles) over delivered packets."""
        if self.packets_delivered == 0:
            return 0.0
        return self.total_latency / self.packets_delivered

    @property
    def delivery_ratio(self) -> float:
        """Delivered / injected packets; below 1.0 past saturation."""
        if self.packets_injected == 0:
            return 1.0
        return self.packets_delivered / self.packets_injected

    def flow_average_latency(self, flow_name: str) -> float:
        delivered = self.per_flow_delivered.get(flow_name, 0)
        if delivered == 0:
            return 0.0
        return self.per_flow_latency.get(flow_name, 0.0) / delivered

    def latency_percentile(self, fraction: float) -> float:
        """Percentile over the per-flow average latencies (e.g. 0.99 = p99).

        The simulator aggregates latency per flow rather than keeping every
        packet sample, so this is a percentile across *flows* — the tail
        flow, not the tail packet.  That is the quantity the comparison
        reports use to show how unevenly an algorithm treats its flows.

        Edge cases are well defined instead of raising or returning NaN:
        an empty sample set (nothing delivered yet) gives 0.0, a single
        sample gives that sample for every percentile, ``fraction=0``
        gives the minimum and ``fraction=1`` the maximum.  Values barely
        above 1 from float round-off (within ``1e-6``) are clamped to the
        maximum; beyond that, percent-style inputs in (1, 100] —
        ``latency_percentile(99)`` — are interpreted as ``p/100`` for
        convenience.
        """
        samples = [self.flow_average_latency(name)
                   for name, delivered in self.per_flow_delivered.items()
                   if delivered > 0]
        if 1.0 < fraction <= 1.0 + 1e-6:
            fraction = 1.0  # round-off above p100, not a percent input
        elif 1.0 < fraction <= 100.0:
            fraction = fraction / 100.0
        return percentile(samples, fraction)

    def describe(self) -> str:
        return (
            f"cycles={self.cycles} (warmup {self.warmup_cycles}), "
            f"injected={self.packets_injected}, delivered={self.packets_delivered}, "
            f"throughput={self.throughput:.4f} pkt/cycle, "
            f"avg latency={self.average_latency:.2f} cycles"
        )


@dataclass
class SweepPoint:
    """One point of a load sweep: offered rate versus achieved performance."""

    offered_rate: float
    throughput: float
    average_latency: float
    delivery_ratio: float = 1.0


@dataclass
class SweepCurve:
    """A full load sweep for one routing algorithm (one line of a figure)."""

    algorithm: str
    workload: str
    points: List[SweepPoint] = field(default_factory=list)

    def add_point(self, point: SweepPoint) -> None:
        self.points.append(point)

    @property
    def offered_rates(self) -> List[float]:
        return [point.offered_rate for point in self.points]

    @property
    def throughputs(self) -> List[float]:
        return [point.throughput for point in self.points]

    @property
    def latencies(self) -> List[float]:
        return [point.average_latency for point in self.points]

    def saturation_throughput(self) -> float:
        """The highest throughput observed along the sweep."""
        return max(self.throughputs, default=0.0)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile (fraction in [0, 1]).

    Well-defined at the edges: an empty sequence yields 0.0, a single
    value is every percentile of itself, ``fraction=0`` is the minimum and
    ``fraction=1`` the maximum.  A NaN or out-of-range fraction raises
    :class:`ValueError` (NaN would otherwise propagate silently through
    the interpolation).
    """
    if not values:
        return 0.0
    if math.isnan(fraction) or not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1]: {fraction}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight
