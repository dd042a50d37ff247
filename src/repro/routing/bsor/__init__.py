"""Bandwidth-Sensitive Oblivious Routing: the paper's core contribution.

BSOR selects one static route per flow so that the maximum channel load
(MCL) is minimised while deadlock freedom is guaranteed by construction.
Public entry points:

* :class:`BSORRouting` — the Section 3.2 framework: build acyclic CDGs
  from a set of :class:`CDGStrategy` recipes, select routes on each with a
  selector, keep the best (lowest MCL, ties by average hops); per-CDG
  results are recorded as :class:`ExplorationEntry` rows (Tables 6.1/6.2);
* :class:`MILPSelector` — the exact mixed-integer formulation over
  demand-indexed flow variables, minimising the maximum channel load;
* :class:`DijkstraSelector` — the greedy incremental selector with
  :class:`ResidualCapacityWeight` edge weights;
* strategy factories — :func:`paper_strategies` (the five CDGs of Tables
  6.1/6.2), :func:`full_strategy_set` (the 12 + 3 exploration set),
  :func:`turn_model_strategy`, :func:`ad_hoc_strategy`,
  :func:`two_turn_strategy`, :func:`vc_escalation_strategy`,
  :func:`virtual_network_strategy`.
"""

from .dijkstra import DijkstraSelector
from .framework import (
    BSORRouting,
    CDGStrategy,
    ExplorationEntry,
    ad_hoc_strategy,
    all_two_turn_strategies,
    full_strategy_set,
    paper_strategies,
    turn_model_strategy,
    two_turn_strategy,
    vc_escalation_strategy,
    virtual_network_strategy,
)
from .milp import MILPSelector, MILPSolution
from .weights import ResidualCapacityWeight, minimal_hop_weight

__all__ = [
    "BSORRouting",
    "CDGStrategy",
    "DijkstraSelector",
    "ExplorationEntry",
    "MILPSelector",
    "MILPSolution",
    "ResidualCapacityWeight",
    "ad_hoc_strategy",
    "all_two_turn_strategies",
    "full_strategy_set",
    "minimal_hop_weight",
    "paper_strategies",
    "turn_model_strategy",
    "two_turn_strategy",
    "vc_escalation_strategy",
    "virtual_network_strategy",
]
