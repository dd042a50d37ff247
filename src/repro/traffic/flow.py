"""Flows and flow sets: the application communication specification.

BSOR's input is a set of *flows* (the paper's "data transfers")
``K = {K_1, ..., K_k}`` with ``K_i = (s_i, t_i, d_i)``: a source node, a
destination node and an estimated bandwidth demand.  A :class:`FlowSet`
bundles the flows of one application together with bookkeeping helpers used
by the route selectors, the metrics layer and the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import TrafficError


@dataclass(frozen=True)
class Flow:
    """A single data transfer with an estimated bandwidth demand.

    Attributes
    ----------
    source:
        Index of the node injecting the flow's packets.
    destination:
        Index of the node consuming the flow's packets.
    demand:
        Estimated bandwidth of the flow.  The unit is arbitrary but must be
        consistent within a :class:`FlowSet`; the paper uses MB/s for the
        applications and an abstract unit for the synthetic patterns.
    name:
        Optional identifier (``"f1"``, ``"f2"``, ... in the paper's
        application figures).  Auto-assigned by :class:`FlowSet` when empty.
    """

    source: int
    destination: int
    demand: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise TrafficError(
                f"flow source and destination must differ: {self.source}"
            )
        if self.source < 0 or self.destination < 0:
            raise TrafficError(
                f"flow endpoints must be non-negative: "
                f"({self.source}, {self.destination})"
            )
        if self.demand < 0:
            raise TrafficError(f"flow demand must be non-negative: {self.demand}")

    @property
    def pair(self) -> Tuple[int, int]:
        """The (source, destination) pair of the flow."""
        return self.source, self.destination

    def with_demand(self, demand: float) -> "Flow":
        """A copy of this flow with a different bandwidth demand."""
        return replace(self, demand=demand)

    def scaled(self, factor: float) -> "Flow":
        """A copy of this flow with demand multiplied by *factor*."""
        if factor < 0:
            raise TrafficError(f"scale factor must be non-negative: {factor}")
        return replace(self, demand=self.demand * factor)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "flow"
        return f"{label}({self.source}->{self.destination}, {self.demand:g})"


class FlowSet:
    """An ordered collection of flows describing one application.

    The order of flows matters for the Dijkstra-based selector (flows are
    routed one at a time in order), so the collection preserves insertion
    order and exposes deterministic sorting helpers.  :meth:`add` is the only
    mutator; it drops the canonical key fragment
    :mod:`repro.runner.fingerprint` keeps on the set.
    """

    def __init__(self, flows: Iterable[Flow] = (), name: str = "") -> None:
        self.name = name
        self._flows: List[Flow] = []
        #: name -> flow; names are unique, so membership and lookup by name
        #: need no scan of the list
        self._by_name: Dict[str, Flow] = {}
        self._key_fragment: Optional[str] = None
        for flow in flows:
            self.add(flow)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, flow: Flow) -> Flow:
        """Append *flow*, auto-naming it ``f<k>`` if it has no name."""
        if not isinstance(flow, Flow):
            raise TrafficError(f"not a Flow: {flow!r}")
        if not flow.name:
            flow = replace(flow, name=f"f{len(self._flows) + 1}")
        if flow.name in self._by_name:
            raise TrafficError(f"duplicate flow name: {flow.name}")
        self._flows.append(flow)
        self._by_name[flow.name] = flow
        self._key_fragment = None
        return flow

    def add_flow(self, source: int, destination: int, demand: float,
                 name: str = "") -> Flow:
        """Convenience wrapper building and appending a :class:`Flow`."""
        return self.add(Flow(source, destination, demand, name))

    @classmethod
    def from_tuples(cls, tuples: Iterable[Tuple[int, int, float]],
                    name: str = "") -> "FlowSet":
        """Build a flow set from ``(source, destination, demand)`` tuples."""
        flow_set = cls(name=name)
        for source, destination, demand in tuples:
            flow_set.add_flow(source, destination, demand)
        return flow_set

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows)

    def __getitem__(self, index: int) -> Flow:
        return self._flows[index]

    def __contains__(self, flow: Flow) -> bool:
        return isinstance(flow, Flow) and \
            self._by_name.get(flow.name) == flow

    @property
    def flows(self) -> Sequence[Flow]:
        return tuple(self._flows)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def by_name(self, name: str) -> Flow:
        try:
            return self._by_name[name]
        except KeyError:
            raise TrafficError(
                f"no flow named {name!r} in flow set {self.name!r}") from None

    def total_demand(self) -> float:
        """Sum of the bandwidth demands of all flows."""
        return sum(flow.demand for flow in self._flows)

    def max_demand(self) -> float:
        """Largest single-flow demand (0 for an empty set)."""
        return max((flow.demand for flow in self._flows), default=0.0)

    def min_demand(self) -> float:
        """Smallest single-flow demand (0 for an empty set)."""
        return min((flow.demand for flow in self._flows), default=0.0)

    def sources(self) -> List[int]:
        """Distinct source nodes, in first-appearance order."""
        seen: Dict[int, None] = {}
        for flow in self._flows:
            seen.setdefault(flow.source, None)
        return list(seen)

    def destinations(self) -> List[int]:
        """Distinct destination nodes, in first-appearance order."""
        seen: Dict[int, None] = {}
        for flow in self._flows:
            seen.setdefault(flow.destination, None)
        return list(seen)

    def nodes(self) -> List[int]:
        """All nodes that appear as a source or destination."""
        seen: Dict[int, None] = {}
        for flow in self._flows:
            seen.setdefault(flow.source, None)
            seen.setdefault(flow.destination, None)
        return list(seen)

    def flows_from(self, source: int) -> List[Flow]:
        return [flow for flow in self._flows if flow.source == source]

    def flows_to(self, destination: int) -> List[Flow]:
        return [flow for flow in self._flows if flow.destination == destination]

    def injection_demand(self, source: int) -> float:
        """Aggregate demand injected by *source*."""
        return sum(flow.demand for flow in self.flows_from(source))

    def ejection_demand(self, destination: int) -> float:
        """Aggregate demand delivered to *destination*."""
        return sum(flow.demand for flow in self.flows_to(destination))

    def max_node(self) -> int:
        """Largest node index referenced by any flow (-1 for empty)."""
        return max((max(flow.pair) for flow in self._flows), default=-1)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def sorted_by_demand(self, descending: bool = True) -> "FlowSet":
        """A new flow set with flows ordered by demand.

        The Dijkstra selector benefits from routing the largest flows first,
        since early routes see the most residual capacity.
        """
        ordered = sorted(
            self._flows, key=lambda flow: (flow.demand, flow.name), reverse=descending
        )
        return FlowSet(ordered, name=self.name)

    def scaled(self, factor: float) -> "FlowSet":
        """A new flow set with every demand multiplied by *factor*."""
        return FlowSet((flow.scaled(factor) for flow in self._flows), name=self.name)

    def with_demands(self, demands: Dict[str, float]) -> "FlowSet":
        """A new flow set replacing demands by flow name.

        Flows whose name is not a key of *demands* keep their demand.  Used
        by the bandwidth-variation machinery to apply per-flow perturbations.
        """
        updated: List[Flow] = []
        for flow in self._flows:
            if flow.name in demands:
                updated.append(flow.with_demand(demands[flow.name]))
            else:
                updated.append(flow)
        return FlowSet(updated, name=self.name)

    def remapped(self, mapping: Dict[int, int]) -> "FlowSet":
        """A new flow set with node indices translated through *mapping*.

        Used to place an application task graph (whose "nodes" are logical
        module indices) onto physical mesh nodes.
        """
        remapped: List[Flow] = []
        for flow in self._flows:
            if flow.source not in mapping or flow.destination not in mapping:
                raise TrafficError(
                    f"mapping is missing an endpoint of flow {flow.name}: "
                    f"{flow.source} or {flow.destination}"
                )
            remapped.append(
                Flow(mapping[flow.source], mapping[flow.destination],
                     flow.demand, flow.name)
            )
        return FlowSet(remapped, name=self.name)

    def normalized(self, reference: Optional[float] = None) -> "FlowSet":
        """Scale demands so the largest demand equals 1 (or *reference*)."""
        peak = self.max_demand()
        if peak <= 0:
            return FlowSet(self._flows, name=self.name)
        target = 1.0 if reference is None else reference
        return self.scaled(target / peak)

    def merged_with(self, other: "FlowSet", name: str = "") -> "FlowSet":
        """Concatenate two flow sets (flow names are regenerated)."""
        merged = FlowSet(name=name or self.name)
        for flow in list(self._flows) + list(other.flows):
            merged.add_flow(flow.source, flow.destination, flow.demand)
        return merged

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line table of the flows, for logs and examples."""
        lines = [f"FlowSet {self.name!r}: {len(self)} flows, "
                 f"total demand {self.total_demand():g}"]
        for flow in self._flows:
            lines.append(
                f"  {flow.name:>6}  {flow.source:>4} -> {flow.destination:<4}  "
                f"{flow.demand:g}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlowSet(name={self.name!r}, flows={len(self._flows)})"
