"""The mixed integer-linear programming route selector (Section 3.5).

For small and medium problems the BSOR framework selects routes optimally by
solving an unsplittable multicommodity-flow MILP over the flow graph ``G_A``
derived from an acyclic CDG:

* a binary variable ``b_i(e)`` per flow ``i`` and flow-graph edge ``e``
  says whether the flow's (single) path uses the edge;
* flow-conservation constraints force the binaries of each flow to describe
  one path from the flow's source terminal to its sink terminal — because
  ``G_A`` is acyclic the binary flow can never contain a cycle, so it is a
  simple path;
* a hop-count constraint per flow bounds the path length to the minimal hop
  count plus a configurable slack (slack 0 restricts BSOR to minimal routes;
  the paper increments the bound "by 2 or more to allow for non-minimal
  routing");
* channel-load constraints tie every physical link's aggregate load to the
  continuous variable ``U``; minimising ``U`` minimises the maximum channel
  load.

The paper solves the MILP with CPLEX; this implementation uses the HiGHS
branch-and-cut solver shipped with :mod:`scipy.optimize`.  Both are exact
solvers, and both can be used as anytime heuristics by imposing a time
limit (Section 7.3 notes that "the ILP solver can be used as a heuristic
approach by limiting the number of iterations").

Per-flow variable pruning keeps the model small: only edges that can lie on
a path respecting the flow's hop bound get a variable.

scipy and numpy are imported at the first solve, not with this module:
importing scipy costs about a third of a second, and most processes (queue
workers, the study server, every study that plans no ``bsor-milp``) never
solve a MILP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from ...exceptions import ReproError, SolverError, UnroutableFlowError
from ...flowgraph.flowgraph import FlowGraph, Terminal
from ...topology.links import Channel, physical
from ...traffic.flow import Flow, FlowSet
from ..base import Route, RouteSet


def milp(**problem):
    """:func:`scipy.optimize.milp` on *problem*; scipy is imported by the
    first call."""
    from scipy.optimize import milp as solve

    return solve(**problem)


#: What a MILP solve raises when scipy (or numpy) cannot be imported.
SCIPY_HELP = (
    "the bsor-milp route selector requires scipy, which cannot be imported "
    "in this environment ({error}); install it (pip install scipy) or "
    "route with bsor-dijkstra instead"
)

#: HiGHS status "iteration or time limit reached"; no iteration limit is
#: ever set here, so it means the ``time_limit`` option cut the solve short.
_STATUS_LIMIT_REACHED = 1


@dataclass
class MILPSolution:
    """Diagnostics of one MILP solve, kept alongside the returned routes.

    A result in its own right: :class:`~repro.routing.bsor.framework.
    ExplorationEntry` keeps it per CDG and :class:`~repro.faults.RoutePlan`
    carries the set (``solves``), into and out of the route-plan cache.
    """

    status: int
    message: str
    objective_value: Optional[float]
    mcl: Optional[float]
    num_variables: int
    num_constraints: int
    mip_gap: Optional[float] = None
    #: Wall-clock seconds inside the solver call.
    wall_seconds: float = 0.0

    @property
    def optimal(self) -> bool:
        return self.status == 0

    @property
    def time_limit_hit(self) -> bool:
        """True when the solver stopped at ``time_limit``: whatever routes
        it returned depend on how fast this host happened to be."""
        return self.status == _STATUS_LIMIT_REACHED


class MILPSelector:
    """Optimal (or time-limited) route selection by mixed integer programming.

    Parameters
    ----------
    flow_graph:
        The flow graph ``G_A`` to route on.
    hop_slack:
        Extra hops allowed beyond each flow's minimal conforming hop count.
        0 forces minimal routes; the paper's default exploration allows
        non-minimal routes, so the selector defaults to 2.
    hop_penalty:
        Weight of the secondary term that prefers shorter paths among
        solutions of equal maximum channel load.  ``None`` picks a value small
        enough not to perturb the primary objective.
    time_limit:
        Solver wall-clock limit in seconds (``None`` = no limit).
    """

    def __init__(self, flow_graph: FlowGraph,
                 hop_slack: int = 2,
                 hop_penalty: Optional[float] = None,
                 time_limit: Optional[float] = None) -> None:
        if hop_slack < 0:
            raise SolverError(f"hop slack must be non-negative: {hop_slack}")
        self.flow_graph = flow_graph
        self.hop_slack = hop_slack
        self.hop_penalty = hop_penalty
        self.time_limit = time_limit
        #: Filled by :meth:`select_routes` with solver diagnostics.
        self.last_solution: Optional[MILPSolution] = None

    # ------------------------------------------------------------------
    # model construction helpers
    # ------------------------------------------------------------------
    def _admissible_edges(self, flow: Flow) -> Tuple[int, List[Tuple]]:
        """The minimal flow-graph edge count of *flow*'s paths, and the
        flow-graph edges that can appear on a hop-bounded path of it."""
        graph = self.flow_graph.graph
        source = self.flow_graph.add_source_terminal(flow.source)
        sink = self.flow_graph.add_sink_terminal(flow.destination)
        try:
            dist_from_source = nx.single_source_shortest_path_length(graph, source)
        except nx.NodeNotFound as exc:  # pragma: no cover - defensive
            raise UnroutableFlowError(str(exc)) from exc
        dist_to_sink = nx.single_source_shortest_path_length(
            graph.reverse(copy=False), sink
        )
        if sink not in dist_from_source:
            raise UnroutableFlowError(
                f"no CDG-conforming path for flow {flow.name} "
                f"({flow.source} -> {flow.destination}) under "
                f"{self.flow_graph.cdg.name!r}"
            )
        minimal_edges = dist_from_source[sink]
        # A path with `h` channel hops uses `h + 1` flow-graph edges.
        allowed_edges = minimal_edges + self.hop_slack
        admissible: List[Tuple] = []
        for u, v in graph.edges:
            du = dist_from_source.get(u)
            dv = dist_to_sink.get(v)
            if du is None or dv is None:
                continue
            if du + 1 + dv <= allowed_edges:
                admissible.append((u, v))
        return minimal_edges, admissible

    # ------------------------------------------------------------------
    # model construction
    # ------------------------------------------------------------------
    def _build_and_solve(self, flow_set: FlowSet):
        import numpy as np
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint

        flows = list(flow_set)
        if not flows:
            raise SolverError("cannot route an empty flow set")

        # --- variable layout -------------------------------------------------
        # index 0 is the continuous MCL variable U; the rest are binaries, one
        # per (flow, admissible edge).
        var_index: Dict[Tuple[int, Tuple], int] = {}
        admissible: Dict[int, List[Tuple]] = {}
        minimal_edges: Dict[int, int] = {}
        next_var = 1
        for fidx, flow in enumerate(flows):
            minimal_edges[fidx], edges = self._admissible_edges(flow)
            admissible[fidx] = edges
            for edge in edges:
                var_index[(fidx, edge)] = next_var
                next_var += 1
        num_vars = next_var

        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        lower: List[float] = []
        upper: List[float] = []
        row = 0

        def add_entry(r: int, c: int, value: float) -> None:
            rows.append(r)
            cols.append(c)
            data.append(value)

        # --- flow conservation ----------------------------------------------
        for fidx, flow in enumerate(flows):
            edges = admissible[fidx]
            incident: Dict[object, List[Tuple[Tuple, int]]] = {}
            for edge in edges:
                u, v = edge
                incident.setdefault(u, []).append((edge, -1))  # leaves u
                incident.setdefault(v, []).append((edge, +1))  # enters v
            source = self.flow_graph.source_terminal(flow.source)
            sink = self.flow_graph.sink_terminal(flow.destination)
            for vertex, touching in incident.items():
                for edge, sign in touching:
                    add_entry(row, var_index[(fidx, edge)], float(sign))
                if vertex == source:
                    balance = -1.0   # net outflow of one unit
                elif vertex == sink:
                    balance = 1.0    # net inflow of one unit
                else:
                    balance = 0.0
                lower.append(balance)
                upper.append(balance)
                row += 1

        # --- per-channel load vs. U ------------------------------------------
        channel_terms: Dict[Channel, List[Tuple[int, float]]] = {}
        for fidx, flow in enumerate(flows):
            for edge in admissible[fidx]:
                head = edge[1]
                if isinstance(head, Terminal):
                    continue
                channel_terms.setdefault(physical(head), []).append(
                    (var_index[(fidx, edge)], flow.demand)
                )
        for terms in channel_terms.values():
            for col, coefficient in terms:
                add_entry(row, col, coefficient)
            add_entry(row, 0, -1.0)  # ... - U <= 0
            lower.append(-np.inf)
            upper.append(0.0)
            row += 1

        # --- hop bounds -------------------------------------------------------
        for fidx in range(len(flows)):
            used = False
            for edge in admissible[fidx]:
                head = edge[1]
                if isinstance(head, Terminal):
                    continue
                add_entry(row, var_index[(fidx, edge)], 1.0)
                used = True
            if not used:
                continue
            lower.append(-np.inf)
            upper.append(float(minimal_edges[fidx] - 1 + self.hop_slack))
            row += 1

        constraint_matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(row, num_vars)
        )
        constraints = LinearConstraint(
            constraint_matrix, np.array(lower), np.array(upper)
        )

        # --- objective --------------------------------------------------------
        objective = np.zeros(num_vars)
        min_demand = min(
            (flow.demand for flow in flows if flow.demand > 0), default=1.0
        )
        if self.hop_penalty is not None:
            epsilon = self.hop_penalty
        else:
            # Small enough that the accumulated hop penalty over every flow
            # can never trade against a real change of the maximum load.
            epsilon = 0.001 * min_demand / max(num_vars, 1)
        objective[0] = 1.0
        for (fidx, edge), col in var_index.items():
            if not isinstance(edge[1], Terminal):
                objective[col] = epsilon

        integrality = np.ones(num_vars)
        integrality[0] = 0  # U is continuous
        lower_bounds = np.zeros(num_vars)
        upper_bounds = np.ones(num_vars)
        upper_bounds[0] = np.inf
        bounds = Bounds(lower_bounds, upper_bounds)

        options: Dict[str, object] = {"presolve": True}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)

        started = time.perf_counter()
        result = milp(
            c=objective,
            constraints=constraints,
            integrality=integrality,
            bounds=bounds,
            options=options,
        )
        wall_seconds = time.perf_counter() - started
        return (result, var_index, admissible, flows, row, num_vars,
                wall_seconds)

    # ------------------------------------------------------------------
    # solution extraction
    # ------------------------------------------------------------------
    def _extract_route(self, flow: Flow, fidx: int, solution,
                       var_index: Dict, admissible: Dict) -> List:
        chosen = {}
        for edge in admissible[fidx]:
            if solution[var_index[(fidx, edge)]] > 0.5:
                chosen.setdefault(edge[0], edge[1])
        source = self.flow_graph.source_terminal(flow.source)
        sink = self.flow_graph.sink_terminal(flow.destination)
        path = [source]
        current = source
        # An acyclic flow graph bounds every path by the vertex count.
        for _ in range(self.flow_graph.num_vertices + 1):
            if current == sink:
                break
            nxt = chosen.get(current)
            if nxt is None:
                raise SolverError(
                    f"MILP solution for flow {flow.name} does not form a "
                    f"path (stuck at {current})"
                )
            path.append(nxt)
            current = nxt
        if current != sink:
            raise SolverError(
                f"MILP solution for flow {flow.name} never reaches its sink"
            )
        return FlowGraph.strip_terminals(path)

    def select_routes(self, flow_set: FlowSet) -> RouteSet:
        """Solve the MILP and return the route of every flow."""
        try:
            (result, var_index, admissible, flows, num_constraints, num_vars,
             wall_seconds) = self._build_and_solve(flow_set)
        except ImportError as error:
            # not a SolverError, which the exploration records as one CDG's
            # failure: without scipy no CDG can be solved
            raise ReproError(SCIPY_HELP.format(error=error)) from error

        if result.x is None:
            self.last_solution = MILPSolution(
                status=int(result.status),
                message=str(result.message),
                objective_value=None,
                mcl=None,
                num_variables=num_vars,
                num_constraints=num_constraints,
                wall_seconds=wall_seconds,
            )
            raise SolverError(
                f"MILP produced no solution: {result.message} "
                f"(status {result.status})"
            )

        route_set = RouteSet(
            self.flow_graph.topology, flow_set, algorithm="BSOR-MILP"
        )
        for fidx, flow in enumerate(flows):
            resources = self._extract_route(
                flow, fidx, result.x, var_index, admissible
            )
            route_set.add(Route(flow, tuple(resources)))

        self.last_solution = MILPSolution(
            status=int(result.status),
            message=str(result.message),
            objective_value=float(result.fun) if result.fun is not None else None,
            mcl=route_set.max_channel_load(),
            num_variables=num_vars,
            num_constraints=num_constraints,
            mip_gap=getattr(result, "mip_gap", None),
            wall_seconds=wall_seconds,
        )
        return route_set
