"""The Dijkstra weighted-shortest-path route selector (Section 3.6).

The heuristic instantiation of the BSOR framework for large problems: flows
are routed one after another on the flow graph ``G_A`` derived from an
acyclic CDG.  For the flow currently being routed, each flow-graph edge is
weighted by the residual-capacity metric of the vertex it is *incident on*
(edges into a sink terminal cost zero), Dijkstra finds the cheapest
conforming path, the residual capacities are updated, and the next flow is
routed.  The result is an unsplittable, deadlock-free route per flow that
tends to spread load uniformly, with path length minimised secondarily.

An optional **rip-up-and-reroute** refinement pass re-routes each flow once
more against the residuals left by all the others, which often shaves the
MCL further at negligible cost; it is off by default to keep the behaviour
exactly as described in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import networkx as nx

from ...exceptions import RoutingError, UnroutableFlowError
from ...flowgraph.flowgraph import FlowGraph, Terminal
from ...traffic.flow import Flow, FlowSet
from ..base import Route, RouteSet
from .weights import ResidualCapacityWeight


class DijkstraSelector:
    """Route selection by iterated weighted shortest paths.

    Parameters
    ----------
    flow_graph:
        The flow graph ``G_A`` (carries the CDG and the topology).
    weight:
        The residual-capacity weight function.  When omitted, one is built
        from the flow set at :meth:`select_routes` time with default
        parameters.
    order:
        Order in which flows are routed: ``"given"`` (flow-set order,
        default), ``"demand-descending"`` (largest flows first — they are
        hardest to place, so give them first pick) or ``"demand-ascending"``.
    refine_passes:
        Number of rip-up-and-reroute refinement passes after the initial
        greedy assignment.
    """

    def __init__(self, flow_graph: FlowGraph,
                 weight: Optional[ResidualCapacityWeight] = None,
                 order: str = "given",
                 refine_passes: int = 0) -> None:
        if order not in ("given", "demand-descending", "demand-ascending"):
            raise RoutingError(
                f"unknown flow ordering {order!r}; expected 'given', "
                f"'demand-descending' or 'demand-ascending'"
            )
        if refine_passes < 0:
            raise RoutingError(f"refine_passes must be >= 0: {refine_passes}")
        self.flow_graph = flow_graph
        self.weight = weight
        self.order = order
        self.refine_passes = refine_passes

    # ------------------------------------------------------------------
    def _ordered_flows(self, flow_set: FlowSet) -> List[Flow]:
        flows = list(flow_set)
        if self.order == "demand-descending":
            flows.sort(key=lambda flow: (-flow.demand, flow.name))
        elif self.order == "demand-ascending":
            flows.sort(key=lambda flow: (flow.demand, flow.name))
        return flows

    def _edge_weight_function(self, weight: ResidualCapacityWeight, demand: float):
        """Build the networkx edge-weight callable for one flow.

        The weight of a flow-graph edge is the weight of the vertex it is
        incident on (its head); edges into a sink terminal always cost zero,
        exactly as in the paper's construction.
        """

        def edge_weight(_u, v, _data) -> float:
            if isinstance(v, Terminal):
                return 0.0
            return weight.weight(v, demand)

        return edge_weight

    def route_single_flow(self, flow: Flow,
                          weight: ResidualCapacityWeight) -> List:
        """The cheapest conforming route for one flow under current residuals."""
        graph = self.flow_graph.graph
        source = self.flow_graph.add_source_terminal(flow.source)
        sink = self.flow_graph.add_sink_terminal(flow.destination)
        try:
            path = nx.dijkstra_path(
                graph, source, sink,
                weight=self._edge_weight_function(weight, flow.demand),
            )
        except nx.NetworkXNoPath as exc:
            raise UnroutableFlowError(
                f"no CDG-conforming path for flow {flow.name} "
                f"({flow.source} -> {flow.destination}) under "
                f"{self.flow_graph.cdg.name!r}"
            ) from exc
        return FlowGraph.strip_terminals(path)

    # ------------------------------------------------------------------
    def select_routes(self, flow_set: FlowSet) -> RouteSet:
        """Route every flow of *flow_set*; returns the complete route set."""
        weight = self.weight or ResidualCapacityWeight(flow_set)
        route_set = RouteSet(
            self.flow_graph.topology, flow_set, algorithm="BSOR-Dijkstra"
        )
        selected: Dict[str, Sequence] = {}

        for flow in self._ordered_flows(flow_set):
            resources = self.route_single_flow(flow, weight)
            weight.commit_route(resources, flow.demand)
            selected[flow.name] = resources

        for _ in range(self.refine_passes):
            self._refine_once(flow_set, weight, selected)

        for flow in flow_set:
            route_set.add(Route(flow, tuple(selected[flow.name])))
        return route_set

    def _refine_once(self, flow_set: FlowSet, weight: ResidualCapacityWeight,
                     selected: Dict[str, Sequence]) -> None:
        """One rip-up-and-reroute pass over every flow."""
        for flow in self._ordered_flows(flow_set):
            current = selected[flow.name]
            weight.release_route(current, flow.demand)
            replacement = self.route_single_flow(flow, weight)
            weight.commit_route(replacement, flow.demand)
            selected[flow.name] = replacement
