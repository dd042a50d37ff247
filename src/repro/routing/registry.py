"""The routing-algorithm registry: every router behind one named factory.

The paper's evaluation is comparative — BSOR against DOR, ROMM, Valiant and
O1TURN — so the library needs a single place where "a routing algorithm" can
be named, constructed and documented.  This module provides it:

* :func:`register_router` — a decorator that registers a factory under a
  canonical slug (``"dor"``, ``"bsor-dijkstra"``, ...) together with the
  metadata the documentation generator and the comparison engine consume
  (mechanism, deadlock-freedom argument, paper section);
* :func:`create_router` — build a :class:`~repro.routing.base.RoutingAlgorithm`
  by name, forwarding only the options its factory understands, so one
  option bag (seed, hop slack, MILP time limit, ...) can configure a whole
  comparison matrix;
* :func:`router_spec` / :func:`available_routers` — lookup and enumeration,
  with aliases (``"xy"`` for ``"dor"``) and display names (the strings the
  figures print, e.g. ``"BSOR-Dijkstra"``) resolved case-insensitively;
* :func:`render_routing_guide` — the generated ``docs/routing-guide.md`` is
  rendered straight from the registered metadata, so the guide can never
  drift from the code.

New algorithms plug in with one decorator::

    @register_router("my-router", display_name="MyRouter",
                     summary="...", mechanism="...",
                     deadlock_freedom="...", paper_section="-")
    def _make_my_router(*, seed: int = 0) -> RoutingAlgorithm:
        return MyRouting(seed=seed)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exceptions import RoutingError
from ..registry import Registry, Spec, normalize_name
from .base import RoutingAlgorithm
from .bsor.framework import BSORRouting
from .dor import XYRouting, YXRouting
from .o1turn import O1TurnRouting
from .romm import ROMMRouting
from .valiant import ValiantRouting


@dataclass(frozen=True)
class RouterSpec(Spec):
    """One registered routing algorithm: a :class:`~repro.registry.Spec`
    whose factory returns a fresh :class:`RoutingAlgorithm` and whose
    ``display_name`` matches ``RoutingAlgorithm.name``.

    Attributes
    ----------
    mechanism:
        A paragraph describing how routes are chosen (routing-guide source).
    deadlock_freedom:
        A paragraph arguing why the algorithm is deadlock free
        (routing-guide source).
    paper_section:
        Where the source paper discusses the algorithm.
    """

    mechanism: str = ""
    deadlock_freedom: str = ""
    paper_section: str = ""


#: The registry instance.  Module-level so every layer (experiments,
#: compare, CLI, docs generator) sees the same set of algorithms.
_ROUTERS: Registry[RouterSpec] = Registry(
    RouterSpec, kind="routing algorithm", plural="algorithms",
    noun="router name", error=RoutingError,
)

#: ``@register_router(name, display_name=, aliases=, summary=, mechanism=,
#: deadlock_freedom=, paper_section=)`` — :meth:`Registry.register`; a
#: clashing name, alias or display name raises :class:`RoutingError`.
register_router = _ROUTERS.register
#: Canonical names of every registered algorithm, in registration order.
available_routers = _ROUTERS.names
#: Every registered :class:`RouterSpec`, in registration order.
router_specs = _ROUTERS.specs
#: Look a spec up by canonical name, alias or display name.
router_spec = _ROUTERS.lookup
#: ``create_router(name, **options)`` — a fresh algorithm by name.  Options
#: its factory does not declare are dropped and ``None`` means "the factory
#: default", so one option bag — ``seed``, ``hop_slack``,
#: ``milp_time_limit``, ``strategies`` — drives a heterogeneous comparison.
create_router = _ROUTERS.create


def normalize_router_name(name: str) -> str:
    """Canonical form of a router name: lower-case, ``_`` folded to ``-``."""
    return normalize_name(name)


# ----------------------------------------------------------------------
# the built-in algorithms
# ----------------------------------------------------------------------
@register_router(
    "dor",
    display_name="XY",
    aliases=("dor-xy",),
    summary="XY-ordered dimension-order routing, the paper's primary baseline.",
    paper_section="Section 2.1.1",
    mechanism=(
        "Every packet first travels along the x dimension until its x offset "
        "is zero, then along the y dimension.  The route of a flow is fully "
        "determined by its source and destination, requires no routing table "
        "and is always minimal."
    ),
    deadlock_freedom=(
        "All XY routes conform to the XY turn model: the only turns taken "
        "are from an x channel into a y channel, so the channel dependence "
        "graph is acyclic by construction (Dally & Seitz condition) and no "
        "virtual channels are needed."
    ),
)
def _make_dor(*, order: str = "xy") -> RoutingAlgorithm:
    return XYRouting() if order == "xy" else YXRouting()


@register_router(
    "yx",
    display_name="YX",
    aliases=("dor-yx",),
    summary="YX-ordered dimension-order routing (DOR with the dimensions swapped).",
    paper_section="Section 2.1.1",
    mechanism=(
        "Identical to XY dimension-order routing with the dimension order "
        "reversed: packets exhaust the y offset first, then the x offset.  "
        "On asymmetric traffic the XY and YX variants can have very "
        "different maximum channel loads, which is why the paper reports "
        "both."
    ),
    deadlock_freedom=(
        "Mirror image of the XY argument: only y-to-x turns occur, so the "
        "induced channel dependence graph follows the YX turn model and is "
        "acyclic."
    ),
)
def _make_yx() -> RoutingAlgorithm:
    return YXRouting()


@register_router(
    "romm",
    display_name="ROMM",
    summary="Randomized two-phase minimal routing through an intermediate "
            "node in the minimal quadrant.",
    paper_section="Section 2.1.2",
    mechanism=(
        "Each flow picks a random intermediate node inside the minimal "
        "quadrant spanned by its source and destination, then routes "
        "source-to-intermediate and intermediate-to-destination with "
        "dimension-order routing (XY then YX).  The intermediate is drawn "
        "per flow, so a flow keeps one path and a maximum channel load can "
        "be attributed to the algorithm.  Paths stay minimal while gaining "
        "diversity over plain DOR."
    ),
    deadlock_freedom=(
        "The two phases run on disjoint virtual networks: phase one uses "
        "one virtual-channel class with XY routing, phase two a second "
        "class with YX routing.  Each virtual network's dependence graph is "
        "acyclic and packets move from the first to the second exactly once "
        "(at the intermediate node), so no cyclic dependence can form.  Two "
        "virtual channels are therefore required."
    ),
)
def _make_romm(*, seed: Optional[int] = 0) -> RoutingAlgorithm:
    return ROMMRouting(seed=seed)


@register_router(
    "valiant",
    display_name="Valiant",
    aliases=("vlb",),
    summary="Valiant's randomized two-phase routing through a uniformly "
            "random intermediate node.",
    paper_section="Section 2.1.2",
    mechanism=(
        "Each flow routes through an intermediate node chosen uniformly at "
        "random anywhere in the network — phase one source-to-intermediate, "
        "phase two intermediate-to-destination, each phase dimension-ordered. "
        "This equalises load for worst-case traffic at the price of (often "
        "much) longer paths; the paper repeatedly observes the resulting "
        "loss of locality on benign patterns."
    ),
    deadlock_freedom=(
        "Same two-virtual-network construction as ROMM: the XY phase-one "
        "network and the YX phase-two network are individually acyclic and "
        "are traversed in a fixed order, so the combined dependence graph "
        "is acyclic with two virtual channels."
    ),
)
def _make_valiant(*, seed: Optional[int] = 0) -> RoutingAlgorithm:
    return ValiantRouting(seed=seed)


@register_router(
    "o1turn",
    display_name="O1TURN",
    aliases=("o1",),
    summary="Orthogonal one-turn routing: each flow takes its XY or its YX "
            "route, balancing the two.",
    paper_section="Section 2.1.2",
    mechanism=(
        "Every source/destination pair has exactly two dimension-order "
        "routes (XY and YX); O1TURN assigns each flow one of them — "
        "alternating deterministically by default, or by a seeded coin flip "
        "— so each packet makes at most one turn.  Seo et al. show this "
        "achieves provably near-optimal worst-case throughput at DOR-level "
        "router complexity."
    ),
    deadlock_freedom=(
        "The XY-routed flows and the YX-routed flows run on disjoint "
        "virtual networks (one virtual-channel class per dimension order). "
        "Each network conforms to its turn model, hence each is acyclic, "
        "and no packet ever crosses between them."
    ),
)
def _make_o1turn(*, policy: str = "alternate",
                 seed: Optional[int] = 0) -> RoutingAlgorithm:
    return O1TurnRouting(policy=policy, seed=seed)


@register_router(
    "bsor-milp",
    display_name="BSOR-MILP",
    summary="Bandwidth-sensitive oblivious routing with the exact MILP "
            "route selector.",
    paper_section="Sections 3-4",
    mechanism=(
        "BSOR explores a set of acyclic channel-dependence-graph strategies "
        "(turn models and ad hoc cycle breaking).  On each CDG the MILP "
        "selector solves a mixed-integer program over demand-indexed flow "
        "variables that assigns every flow one path so that the maximum "
        "channel load is minimised (optionally within a hop-slack budget); "
        "the CDG whose solution has the lowest MCL wins.  Exact but "
        "exponential in the worst case — a per-CDG time limit keeps runs "
        "bounded."
    ),
    deadlock_freedom=(
        "Routes are selected *inside* an acyclic channel dependence graph: "
        "any route set whose dependencies are a subgraph of an acyclic CDG "
        "is deadlock free by the Dally & Seitz condition, so freedom is "
        "guaranteed by construction rather than checked after the fact."
    ),
)
def _make_bsor_milp(*, strategies=None, hop_slack: int = 2,
                    milp_time_limit: Optional[float] = None,
                    num_vcs: int = 1) -> RoutingAlgorithm:
    return BSORRouting(selector="milp", strategies=strategies,
                       hop_slack=hop_slack, milp_time_limit=milp_time_limit,
                       num_vcs=num_vcs)


@register_router(
    "bsor-dijkstra",
    display_name="BSOR-Dijkstra",
    aliases=("bsor",),
    summary="Bandwidth-sensitive oblivious routing with the scalable "
            "Dijkstra route selector.",
    paper_section="Sections 3-4",
    mechanism=(
        "Same CDG exploration as BSOR-MILP, but on each acyclic CDG the "
        "flows are routed one by one (heaviest demand first) with Dijkstra "
        "over residual-capacity edge weights, optionally refined by "
        "re-routing passes.  Greedy and fast — polynomial in network and "
        "flow count — and in the paper's evaluation it matches or beats the "
        "MILP at high load because its longer routes are better balanced."
    ),
    deadlock_freedom=(
        "Identical argument to BSOR-MILP: every candidate path is drawn "
        "from an acyclic channel dependence graph, so the selected route "
        "set cannot induce a cyclic dependence regardless of how the greedy "
        "selection proceeds."
    ),
)
def _make_bsor_dijkstra(*, strategies=None, hop_slack: int = 2,
                        num_vcs: int = 1) -> RoutingAlgorithm:
    return BSORRouting(selector="dijkstra", strategies=strategies,
                       hop_slack=hop_slack, num_vcs=num_vcs)


# ----------------------------------------------------------------------
# documentation rendering (consumed by scripts/gen_api_docs.py)
# ----------------------------------------------------------------------
def render_routing_guide() -> str:
    """Render ``docs/routing-guide.md`` from the registry metadata.

    One section per registered algorithm: mechanism, deadlock-freedom
    argument and paper reference.  Regenerated by ``make docs``; CI fails
    when the committed guide is stale.
    """
    lines = [
        "# Routing algorithm guide",
        "",
        "<!-- Generated by scripts/gen_api_docs.py from "
        "repro.routing.registry — do not edit by hand. -->",
        "",
        "Every routing algorithm in the library is registered in "
        "`repro.routing.registry` under a canonical name and can be built "
        "with `create_router(name, **options)`.  The comparison engine "
        "(`python -m repro compare`) and this guide are both driven by that "
        "registry, so the table below is always the full set.",
        "",
        "| Name | Aliases | Display name | Paper | Summary |",
        "| --- | --- | --- | --- | --- |",
    ]
    for spec in router_specs():
        aliases = ", ".join(f"`{alias}`" for alias in spec.aliases) or "-"
        lines.append(
            f"| `{spec.name}` | {aliases} | {spec.display_name} | "
            f"{spec.paper_section} | {spec.summary} |"
        )
    for spec in router_specs():
        options = ", ".join(f"`{option}`" for option in spec.accepted_options())
        lines.extend([
            "",
            f"## {spec.display_name} (`{spec.name}`)",
            "",
            spec.summary,
            "",
            "**Mechanism.** " + spec.mechanism,
            "",
            "**Deadlock freedom.** " + spec.deadlock_freedom,
            "",
            f"**Paper reference:** {spec.paper_section}.  "
            f"**Factory options:** {options or 'none'}.",
        ])
    lines.append("")
    return "\n".join(lines)
