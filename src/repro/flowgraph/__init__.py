"""Flow-graph derivation from acyclic channel dependence graphs."""

from .flowgraph import (
    FlowGraph,
    FlowVertex,
    Terminal,
    route_node_path,
)

__all__ = [
    "FlowGraph",
    "FlowVertex",
    "Terminal",
    "route_node_path",
]
