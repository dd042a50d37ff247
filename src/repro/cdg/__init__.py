"""Channel-dependence-graph construction and cycle breaking."""

from .acyclic import ad_hoc_cdg, break_cycles_up_down
from .cdg import (
    ChannelDependenceGraph,
    Resource,
    cdg_from_routes,
    dependence_count_by_turn,
)
from .turn_model import (
    PAPER_TURN_MODELS,
    TurnModel,
    allowed_turns,
    apply_turn_model,
    dor_cdg,
    prohibited_edges,
    prohibited_turns,
    turn_model_by_name,
    turn_model_cdg,
)
from .virtual import (
    expanded_cdg,
    route_vc_profile,
    switches_virtual_channel,
    vc_escalation_cdg,
    virtual_network_cdg,
    virtual_networks_of,
)

__all__ = [
    "ChannelDependenceGraph",
    "PAPER_TURN_MODELS",
    "Resource",
    "TurnModel",
    "ad_hoc_cdg",
    "allowed_turns",
    "apply_turn_model",
    "break_cycles_up_down",
    "cdg_from_routes",
    "dependence_count_by_turn",
    "dor_cdg",
    "expanded_cdg",
    "prohibited_edges",
    "prohibited_turns",
    "route_vc_profile",
    "switches_virtual_channel",
    "turn_model_by_name",
    "turn_model_cdg",
    "vc_escalation_cdg",
    "virtual_network_cdg",
    "virtual_networks_of",
]
