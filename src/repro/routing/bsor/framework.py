"""The BSOR framework: explore acyclic CDGs, select routes, keep the best.

Section 3.2's framework, verbatim:

1. create an acyclic channel dependence graph ``D_A`` by deleting edges from
   the full CDG ``D``;
2. transform ``D_A`` into a flow network ``G_A``;
3. choose routes for each flow in ``G_A`` with a selector function
   (MILP or Dijkstra) that accounts for bandwidth;
4. optionally repeat from step 1 with a different acyclic CDG;
5. select the best set of routes found (lowest maximum channel load, ties
   broken by average hop count).

The paper explores 15 acyclic CDGs per workload: the 12 valid two-turn
prohibition models of the turn model plus 3 ad hoc graphs; Tables 6.1 and
6.2 report the per-CDG MCLs for a representative subset (north-last,
west-first, negative-first, and two ad hoc graphs).  This module provides
both strategy sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...cdg.acyclic import ad_hoc_cdg
from ...cdg.cdg import ChannelDependenceGraph
from ...cdg.turn_model import (
    PAPER_TURN_MODELS,
    TurnModel,
    apply_turn_model,
    turn_model_cdg,
)
from ...cdg.virtual import vc_escalation_cdg, virtual_network_cdg
from ...exceptions import (
    CyclicCDGError,
    RoutingError,
    SolverError,
    UnroutableFlowError,
)
from ...flowgraph.flowgraph import ChannelCapacities, FlowGraph
from ...topology.base import Topology
from ...topology.directions import CLOCKWISE_TURNS, COUNTERCLOCKWISE_TURNS, Turn
from ...traffic.flow import FlowSet
from ..base import RouteSet, RoutingAlgorithm
from .dijkstra import DijkstraSelector
from .milp import MILPSelector, MILPSolution
from .weights import ResidualCapacityWeight


# ----------------------------------------------------------------------
# CDG strategies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CDGStrategy:
    """A named recipe for building an acyclic CDG of a topology."""

    name: str
    builder: Callable[[Topology, int], ChannelDependenceGraph]

    def build(self, topology: Topology, num_vcs: int = 1) -> ChannelDependenceGraph:
        cdg = self.builder(topology, num_vcs)
        cdg.require_acyclic()
        return cdg


def turn_model_strategy(model: TurnModel) -> CDGStrategy:
    """Strategy applying one of the named turn models."""
    return CDGStrategy(
        name=model.value,
        builder=lambda topology, num_vcs: turn_model_cdg(
            topology, model, num_vcs=num_vcs
        ),
    )


def ad_hoc_strategy(seed: int) -> CDGStrategy:
    """Strategy breaking cycles ad hoc with a DFS seeded by *seed*."""
    return CDGStrategy(
        name=f"ad-hoc-{seed}",
        builder=lambda topology, num_vcs: ad_hoc_cdg(
            topology, seed=seed, num_vcs=num_vcs
        ),
    )


def two_turn_strategy(clockwise: Turn, counterclockwise: Turn) -> CDGStrategy:
    """Strategy prohibiting one clockwise and one counter-clockwise turn."""

    def builder(topology: Topology, num_vcs: int) -> ChannelDependenceGraph:
        cdg = ChannelDependenceGraph.from_topology(
            topology, num_vcs=num_vcs,
            name=f"two-turn",
        )
        from ...cdg.turn_model import prohibited_edges

        cdg.remove_edges(prohibited_edges(cdg, (clockwise, counterclockwise)))
        return cdg

    cw_name = f"{clockwise[0].value}{clockwise[1].value}"
    ccw_name = f"{counterclockwise[0].value}{counterclockwise[1].value}"
    return CDGStrategy(name=f"no-{cw_name}-no-{ccw_name}", builder=builder)


def vc_escalation_strategy(model: TurnModel = TurnModel.WEST_FIRST) -> CDGStrategy:
    """Strategy allowing every turn provided the route escalates to a higher VC."""
    return CDGStrategy(
        name=f"vc-escalation-{model.value}",
        builder=lambda topology, num_vcs: vc_escalation_cdg(
            topology, num_vcs=num_vcs, model=model
        ),
    )


def virtual_network_strategy(models: Sequence[TurnModel]) -> CDGStrategy:
    """Strategy with one independently cycle-broken virtual network per VC."""
    return CDGStrategy(
        name="virtual-networks-" + "+".join(model.value for model in models),
        builder=lambda topology, num_vcs: virtual_network_cdg(topology, list(models)),
    )


def paper_strategies(adhoc_seeds: Sequence[int] = (1, 2)) -> List[CDGStrategy]:
    """The five acyclic CDGs reported column-by-column in Tables 6.1 / 6.2.

    North-last, west-first, negative-first, ad hoc 1 and ad hoc 2.
    """
    strategies = [turn_model_strategy(model) for model in PAPER_TURN_MODELS]
    strategies += [ad_hoc_strategy(seed) for seed in adhoc_seeds]
    return strategies


def all_two_turn_strategies(topology: Topology) -> List[CDGStrategy]:
    """The valid two-turn prohibition models (12 on a 2-D mesh).

    Of the 16 ways to prohibit one clockwise and one counter-clockwise turn,
    only those whose resulting CDG is acyclic are returned; on a mesh this
    yields the 12 deadlock-free turn models of Glass & Ni, which are the
    "12 acyclic CDGs derived using the turn model" the paper explores.
    """
    strategies: List[CDGStrategy] = []
    for clockwise in CLOCKWISE_TURNS:
        for counterclockwise in COUNTERCLOCKWISE_TURNS:
            candidate = two_turn_strategy(clockwise, counterclockwise)
            try:
                candidate.build(topology, 1)
            except CyclicCDGError:
                continue  # a cyclic candidate is not a turn model
            strategies.append(candidate)
    return strategies


def full_strategy_set(topology: Topology,
                      adhoc_seeds: Sequence[int] = (1, 2, 3)) -> List[CDGStrategy]:
    """The paper's full exploration: 12 turn-model CDGs plus 3 ad hoc CDGs."""
    return all_two_turn_strategies(topology) + [
        ad_hoc_strategy(seed) for seed in adhoc_seeds
    ]


# ----------------------------------------------------------------------
# exploration results
# ----------------------------------------------------------------------
@dataclass
class ExplorationEntry:
    """The outcome of route selection under one acyclic CDG."""

    strategy_name: str
    mcl: Optional[float]
    average_hops: Optional[float]
    route_set: Optional[RouteSet]
    error: Optional[str] = None
    #: Solver diagnostics of the MILP selector on this CDG (``None`` under
    #: the Dijkstra selector, or when the solver was never reached).
    solution: Optional[MILPSolution] = None

    @property
    def succeeded(self) -> bool:
        return self.route_set is not None


class BSORRouting(RoutingAlgorithm):
    """Bandwidth-sensitive oblivious routing over a set of acyclic CDGs.

    Parameters
    ----------
    selector:
        ``"dijkstra"`` (default; scalable heuristic) or ``"milp"``
        (optimal for small/medium problems).
    strategies:
        The acyclic-CDG strategies to explore; defaults to the paper's
        five-column set (:func:`paper_strategies`).
    num_vcs:
        Number of virtual channels modelled in the CDG.  1 routes over
        physical channels (dynamic VC allocation at run time); >1 statically
        allocates a VC per hop.
    hop_slack:
        Extra hops beyond minimal allowed to each flow (MILP) or a bias on
        the Dijkstra weight towards short paths (larger ``m_constant``).
    capacities:
        Optional channel capacities forwarded to the flow graphs.
    milp_time_limit:
        Per-CDG time limit (seconds) for the MILP selector.
    dijkstra_order / refine_passes / vc_flow_penalty / m_constant:
        Forwarded to the Dijkstra selector and its weight function.
    """

    def __init__(self,
                 selector: str = "dijkstra",
                 strategies: Optional[Sequence[CDGStrategy]] = None,
                 num_vcs: int = 1,
                 hop_slack: int = 2,
                 capacities: Optional[ChannelCapacities] = None,
                 milp_time_limit: Optional[float] = None,
                 milp_objective: str = "min-mcl",
                 dijkstra_order: str = "demand-descending",
                 refine_passes: int = 1,
                 vc_flow_penalty: float = 1e-6,
                 m_constant: Optional[float] = None) -> None:
        if selector not in ("dijkstra", "milp"):
            raise RoutingError(
                f"selector must be 'dijkstra' or 'milp', got {selector!r}"
            )
        if num_vcs < 1:
            raise RoutingError(f"num_vcs must be >= 1: {num_vcs}")
        self.selector = selector
        self.strategies = list(strategies) if strategies is not None else \
            paper_strategies()
        self.num_vcs = num_vcs
        self.hop_slack = hop_slack
        self.capacities = capacities
        self.milp_time_limit = milp_time_limit
        self.milp_objective = milp_objective
        self.dijkstra_order = dijkstra_order
        self.refine_passes = refine_passes
        self.vc_flow_penalty = vc_flow_penalty
        self.m_constant = m_constant
        self.name = "BSOR-MILP" if selector == "milp" else "BSOR-Dijkstra"
        #: Per-CDG outcomes of the last :meth:`compute_routes` call.
        self.exploration: List[ExplorationEntry] = []

    # ------------------------------------------------------------------
    def _selector_on(self, cdg: ChannelDependenceGraph, flow_set: FlowSet):
        """The configured route selector over the flow graph of *cdg*."""
        flow_graph = FlowGraph(cdg, capacities=self.capacities)
        flow_graph.add_flow_terminals(flow_set)
        if self.selector == "milp":
            return MILPSelector(
                flow_graph,
                hop_slack=self.hop_slack,
                objective=self.milp_objective,
                time_limit=self.milp_time_limit,
            )
        weight = ResidualCapacityWeight(
            flow_set,
            m_constant=self.m_constant,
            vc_flow_penalty=self.vc_flow_penalty,
        )
        return DijkstraSelector(
            flow_graph,
            weight=weight,
            order=self.dijkstra_order,
            refine_passes=self.refine_passes,
        )

    def explore(self, topology: Topology,
                flow_set: FlowSet) -> List[ExplorationEntry]:
        """Run route selection under every strategy and record the outcomes.

        This is what Tables 6.1 and 6.2 tabulate: the minimum MCL found on
        each acyclic CDG.
        """
        entries: List[ExplorationEntry] = []
        for strategy in self.strategies:
            selector = None
            try:
                cdg = strategy.build(topology, self.num_vcs)
                selector = self._selector_on(cdg, flow_set)
                route_set = selector.select_routes(flow_set)
                entries.append(ExplorationEntry(
                    strategy_name=strategy.name,
                    mcl=route_set.max_channel_load(),
                    average_hops=route_set.average_hop_count(),
                    route_set=route_set,
                    solution=getattr(selector, "last_solution", None),
                ))
            except (SolverError, UnroutableFlowError, RoutingError) as exc:
                entries.append(ExplorationEntry(
                    strategy_name=strategy.name,
                    mcl=None,
                    average_hops=None,
                    route_set=None,
                    error=str(exc),
                    solution=getattr(selector, "last_solution", None),
                ))
        self.exploration = entries
        return entries

    def solver_diagnostics(self) -> Dict[str, MILPSolution]:
        """The MILP solve of each CDG the last exploration reached the
        solver on, by strategy name (empty under the Dijkstra selector)."""
        return {entry.strategy_name: entry.solution
                for entry in self.exploration if entry.solution is not None}

    def compute_routes(self, topology: Topology, flow_set: FlowSet) -> RouteSet:
        """Explore every strategy and return the best route set found."""
        entries = self.explore(topology, flow_set)
        successful = [entry for entry in entries if entry.succeeded]
        if not successful:
            details = "; ".join(
                f"{entry.strategy_name}: {entry.error}" for entry in entries
            )
            raise RoutingError(
                f"BSOR found no feasible routes under any acyclic CDG ({details})"
            )
        best = min(successful, key=lambda entry: (entry.mcl, entry.average_hops))
        assert best.route_set is not None
        return best.route_set

    # ------------------------------------------------------------------
    def exploration_table(self) -> Dict[str, Optional[float]]:
        """Mapping of strategy name to the MCL it attained (None = failed)."""
        return {entry.strategy_name: entry.mcl for entry in self.exploration}

    def best_entry(self) -> ExplorationEntry:
        successful = [entry for entry in self.exploration if entry.succeeded]
        if not successful:
            raise RoutingError("no successful exploration entry; run explore() first")
        return min(successful, key=lambda entry: (entry.mcl, entry.average_hops))


def bsor_milp(strategies: Optional[Sequence[CDGStrategy]] = None,
              **kwargs) -> BSORRouting:
    """Shorthand constructor for the MILP-based BSOR instantiation."""
    return BSORRouting(selector="milp", strategies=strategies, **kwargs)


def bsor_dijkstra(strategies: Optional[Sequence[CDGStrategy]] = None,
                  **kwargs) -> BSORRouting:
    """Shorthand constructor for the Dijkstra-based BSOR instantiation."""
    return BSORRouting(selector="dijkstra", strategies=strategies, **kwargs)
