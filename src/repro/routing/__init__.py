"""Routing algorithms: baselines (DOR, ROMM, Valiant, O1TURN) and BSOR."""

from .base import Route, RouteSet, RoutingAlgorithm
from .bsor import (
    BSORRouting,
    CDGStrategy,
    DijkstraSelector,
    ExplorationEntry,
    MILPSelector,
    MILPSolution,
    ResidualCapacityWeight,
    ad_hoc_strategy,
    all_two_turn_strategies,
    bsor_dijkstra,
    bsor_milp,
    dijkstra_route_set,
    full_strategy_set,
    milp_route_set,
    paper_strategies,
    turn_model_strategy,
    two_turn_strategy,
    vc_escalation_strategy,
    virtual_network_strategy,
)
from .deadlock import (
    DeadlockReport,
    analyze_route_set,
    analyze_two_phase,
    analyze_virtual_networks,
    certifies,
    check_deadlock_freedom,
    induced_cdg,
    split_route_at,
)
from .dor import DimensionOrderRouting, XYRouting, YXRouting
from .o1turn import O1TurnRouting
from .romm import ROMMRouting
from .registry import (
    RouterSpec,
    available_routers,
    create_router,
    normalize_router_name,
    register_router,
    render_routing_guide,
    router_spec,
    router_specs,
)
from .table import (
    NodeRoutingTable,
    NodeTableEntry,
    PortSelection,
    SourceRoute,
    SourceRoutingTable,
)
from .valiant import ValiantRouting

#: Registry of baseline (non application-aware) routing algorithms by name.
#: Kept for backwards compatibility; new code should use
#: :func:`create_router` / :func:`router_spec`, which also cover BSOR.
BASELINE_ALGORITHMS = {
    "XY": XYRouting,
    "YX": YXRouting,
    "ROMM": ROMMRouting,
    "Valiant": ValiantRouting,
    "O1TURN": O1TurnRouting,
}

__all__ = [
    "BASELINE_ALGORITHMS",
    "BSORRouting",
    "CDGStrategy",
    "DeadlockReport",
    "DijkstraSelector",
    "DimensionOrderRouting",
    "ExplorationEntry",
    "MILPSelector",
    "MILPSolution",
    "NodeRoutingTable",
    "NodeTableEntry",
    "O1TurnRouting",
    "PortSelection",
    "ROMMRouting",
    "ResidualCapacityWeight",
    "Route",
    "RouteSet",
    "RouterSpec",
    "RoutingAlgorithm",
    "SourceRoute",
    "SourceRoutingTable",
    "ValiantRouting",
    "XYRouting",
    "YXRouting",
    "ad_hoc_strategy",
    "all_two_turn_strategies",
    "analyze_route_set",
    "analyze_two_phase",
    "analyze_virtual_networks",
    "available_routers",
    "bsor_dijkstra",
    "bsor_milp",
    "certifies",
    "check_deadlock_freedom",
    "create_router",
    "dijkstra_route_set",
    "full_strategy_set",
    "induced_cdg",
    "milp_route_set",
    "normalize_router_name",
    "paper_strategies",
    "register_router",
    "render_routing_guide",
    "router_spec",
    "router_specs",
    "split_route_at",
    "turn_model_strategy",
    "two_turn_strategy",
    "vc_escalation_strategy",
    "virtual_network_strategy",
]
