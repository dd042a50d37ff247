"""ROMM: randomized, oblivious, multi-phase, minimal routing (Section 2.1.2).

ROMM picks a random intermediate node inside the *minimal quadrant* spanned
by the source and destination, then routes source -> intermediate and
intermediate -> destination with dimension-order routing.  Because the
intermediate node lies in the minimal quadrant, the total path remains
minimal; the randomization provides path diversity and hence better load
balance than plain DOR on adversarial patterns.

Following the paper's methodology (Section 6.2), the intermediate node is
chosen **per flow**, not per packet — a flow keeps a single path, which is
what allows MCL to be computed for ROMM in Table 6.3.  Deadlock freedom in
the simulations relies on two virtual channels (one per phase);
:func:`repro.routing.deadlock.analyze_virtual_networks`, given the phase
boundaries at the intermediate nodes
(:func:`repro.simulator.simulation.phase_boundaries_from_intermediates`),
verifies that decomposition.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..exceptions import RoutingError
from ..topology.base import Topology
from ..topology.mesh import Mesh2D
from ..traffic.flow import FlowSet
from .base import RouteSet, RoutingAlgorithm
from .dor import _require_mesh


class ROMMRouting(RoutingAlgorithm):
    """Two-phase ROMM routing with per-flow random intermediate nodes.

    Parameters
    ----------
    seed:
        Seed for the per-flow intermediate choice, so experiments are
        reproducible.
    first_phase_order / second_phase_order:
        Dimension order used for each phase; using different orders
        (XY then YX by default) maximises the usefulness of the random
        intermediate node.
    """

    def __init__(self, seed: Optional[int] = 0,
                 first_phase_order: str = "xy",
                 second_phase_order: str = "yx") -> None:
        for order in (first_phase_order, second_phase_order):
            if order not in ("xy", "yx"):
                raise RoutingError(f"phase order must be 'xy' or 'yx': {order!r}")
        self.seed = seed
        self.first_phase_order = first_phase_order
        self.second_phase_order = second_phase_order
        self.name = "ROMM"
        #: intermediate node chosen for each flow, by flow name (filled by
        #: :meth:`compute_routes`; consumed by the deadlock analyzer).
        self.intermediates: Dict[str, int] = {}

    def _choose_intermediate(self, mesh: Mesh2D, source: int, destination: int,
                             rng: random.Random) -> int:
        quadrant = mesh.minimal_quadrant(source, destination)
        return rng.choice(quadrant)

    def compute_routes(self, topology: Topology, flow_set: FlowSet) -> RouteSet:
        mesh = _require_mesh(topology)
        rng = random.Random(self.seed)
        route_set = RouteSet(mesh, flow_set, algorithm=self.name)
        self.intermediates = {}
        for flow in flow_set:
            intermediate = self._choose_intermediate(
                mesh, flow.source, flow.destination, rng
            )
            self.intermediates[flow.name] = intermediate
            first = mesh.dimension_ordered_path(
                flow.source, intermediate, order=self.first_phase_order
            )
            second = mesh.dimension_ordered_path(
                intermediate, flow.destination, order=self.second_phase_order
            )
            # first ends at the intermediate; second starts there — join them
            # without repeating the pivot node.
            node_path = first + second[1:]
            route_set.add_node_path(flow, node_path)
        return route_set
