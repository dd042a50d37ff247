"""Route planning: the one funnel from names and a config to routes.

The paper's contribution is a single offline step — given a topology and an
application's flows, pick an acyclic channel dependence graph and select
routes (MILP or Dijkstra) that minimise the maximum channel load.  Every
front end that needs routes (studies, the comparison matrix, the figure and
table harnesses, the ``sweep`` / ``profile`` commands, the HTML report's
occupancy heatmap) obtains them here, so the decisions below exist once:

* which names mean what — :func:`parse_topology`, :func:`pattern_flow_set`,
  :func:`canonical_pattern`, and the routing registry for router names;
* which acyclic CDGs BSOR explores and which options a router receives from
  an :class:`~repro.experiments.config.ExperimentConfig` —
  :func:`router_for`;
* how a router's routes become simulatable, with or without faults —
  :func:`plan_routes`, returning a :class:`~repro.faults.RoutePlan`
  (fault-free: one ``compute_routes`` call plus phase boundaries; under
  faults: :func:`~repro.faults.route_with_faults`, deadlock re-verified);
* that a plan is solved once — given the runner's
  :class:`~repro.runner.cache.ResultCache`, :func:`plan_routes` answers
  from its route-plan entries (content-addressed by
  :func:`~repro.runner.fingerprint.route_plan_key`, each carrying a
  certificate of deadlock freedom that is checked on every load) and
  stores what it solves, so a warm study performs zero solves;
* how a (topology x pattern x router x fault set) cross-product is walked
  and tagged — :func:`plan_matrix` — and how the same walk plans a router
  on each of the paper's five CDGs alone, which is what Tables 6.1 / 6.2
  tabulate — :func:`plan_per_cdg`.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import re
import time
from typing import Dict, Iterator, Optional, Sequence, Tuple

from .exceptions import ExperimentError, ReproError, RoutingError, TrafficError
from .faults import FaultSet, RoutePlan, plan_on
from .progress import emitter_for
from .routing.base import RouteSet, RoutingAlgorithm
from .routing.bsor.framework import (
    CDGStrategy,
    full_strategy_set,
    paper_strategies,
)
from .routing.bsor.milp import MILPSolution
from .routing.deadlock import (
    DeadlockReport,
    analyze_virtual_networks,
    certifies,
)
from .routing.registry import RouterSpec, router_spec
from .runner.fingerprint import (
    PLAN_SCHEMA_VERSION,
    resource_hop,
    route_plan_key,
    route_set_fingerprint,
)
from .topology.base import Topology
from .topology.links import VirtualChannel
from .topology.mesh import Mesh2D
from .topology.ring import Ring
from .topology.torus import Torus2D
from .traffic.flow import FlowSet
from .traffic.synthetic import normalize_pattern_name, synthetic_by_name
from .workloads.registry import (
    is_registered_workload,
    workload_flow_set,
    workload_spec,
)

_TOPOLOGY_SPEC = re.compile(r"^(mesh|torus|ring)(\d+)(?:x(\d+))?$")


def parse_topology(spec: str) -> Topology:
    """Build a topology from a compact spec string.

    ``mesh8x8`` / ``mesh8`` -> :class:`Mesh2D`, ``torus4x4`` ->
    :class:`Torus2D`, ``ring16`` -> :class:`Ring`.  Raises
    :class:`ExperimentError` with the accepted forms for anything else.
    """
    match = _TOPOLOGY_SPEC.match(spec.strip().lower())
    if not match:
        raise ExperimentError(
            f"unknown topology spec {spec!r}; expected forms: mesh8x8, "
            f"mesh8, torus4x4, ring16"
        )
    kind, first, second = match.group(1), int(match.group(2)), match.group(3)
    if kind == "ring":
        if second is not None:
            raise ExperimentError(
                f"ring topologies are one-dimensional: {spec!r}"
            )
        return Ring(first)
    height = int(second) if second is not None else first
    if kind == "mesh":
        return Mesh2D(first, height)
    return Torus2D(first, height)


def canonical_pattern(name: str) -> str:
    """Resolve a pattern/workload name to its canonical form, or raise.

    The one vocabulary of ``patterns:`` / ``--workload`` / ``--patterns``:
    a registered :mod:`repro.workloads` entry first (the paper's
    applications included), a synthetic pattern second, aliases accepted
    by both.  Anything else is one :class:`ExperimentError` carrying each
    registry's own did-you-mean and listing.
    """
    if is_registered_workload(name):
        return workload_spec(name).name
    try:
        return normalize_pattern_name(name)
    except TrafficError as no_pattern:
        reasons = [str(no_pattern)]
    try:
        workload_spec(name)
    except TrafficError as no_workload:
        reasons.insert(0, str(no_workload))
    raise ExperimentError(
        f"unknown pattern or workload {name!r}: {'; '.join(reasons)}")


def pattern_flow_set(pattern: str, topology: Topology, config) -> FlowSet:
    """Instantiate a traffic pattern or application workload on *topology*.

    *pattern* is anything :func:`canonical_pattern` accepts.  A registered
    workload (``h264``, ``decoder-pipeline``, ...) is a task graph placed
    with the config's mapping strategy — its own ``default_mapping`` when
    that is ``None`` — and seed, so BSOR's bandwidth allocation is
    configured from the application's own flow graph; a synthetic pattern
    (``transpose``, ``bit_complement``, ...) covers every node of a
    power-of-two topology.  A known name that cannot be built on this
    topology fails with the builder's own error.
    """
    name = canonical_pattern(pattern)
    if is_registered_workload(name):
        return workload_flow_set(name, topology,
                                 strategy=config.mapping_strategy,
                                 seed=config.seed)
    return synthetic_by_name(name, topology.num_nodes,
                             demand=config.synthetic_demand)


@functools.lru_cache(maxsize=None)
def _full_mesh_strategies(width: int, height: int) -> Tuple[CDGStrategy, ...]:
    # finding the 12 acyclic two-turn models builds 16 candidate CDGs, and
    # the strategies are recipes that do not hold the mesh: once per size
    return tuple(full_strategy_set(Mesh2D(width, height)))


def _router_options(config, topology: Topology) -> Dict[str, object]:
    """The one option bag every router factory picks from."""
    # the full 12 + 3 CDG exploration when the config asks for it (mesh
    # only — the ad hoc and turn-model strategies are mesh constructions);
    # None leaves BSOR on the paper's five-column set
    strategies = None
    if config.explore_full_cdg_set and isinstance(topology, Mesh2D):
        strategies = _full_mesh_strategies(topology.width, topology.height)
    return {
        "seed": config.seed,
        "strategies": strategies,
        "hop_slack": config.hop_slack,
        "milp_time_limit": config.milp_time_limit,
    }


def router_for(name: str, config, topology: Topology) -> RoutingAlgorithm:
    """A fresh instance of the registered router *name* for *config*.

    The one place an :class:`~repro.experiments.config.ExperimentConfig`
    turns into router options: each factory picks what it understands from
    ``seed`` (ROMM / Valiant / O1TURN) and ``strategies`` / ``hop_slack`` /
    ``milp_time_limit`` (BSOR).  *topology* is the intact one the CDG
    strategies are chosen for.
    """
    return router_spec(name).create(**_router_options(config, topology))


# ----------------------------------------------------------------------
# the route-plan cache: what a stored plan is, and what a loaded one must pass
# ----------------------------------------------------------------------
def _plan_key(spec: RouterSpec, topology: Topology, flow_set: FlowSet,
              options: Dict[str, object], fault_set: FaultSet) -> str:
    # only what the factory receives can change the plan: dor's key ignores
    # the seed, bsor-dijkstra's the MILP time limit
    received = spec.received_options(**options)
    if "strategies" in received:
        received["strategies"] = [strategy.name
                                  for strategy in received["strategies"]]
    return route_plan_key(topology, flow_set, spec.name, received,
                          fault_set.label())


def _plan_document(plan: RoutePlan) -> Optional[Dict[str, object]]:
    """What a plan's consumers read, as JSON, with the plan's proof of
    deadlock freedom; ``None`` when there is nothing to certify.

    The proof is the topological ranks
    :func:`~repro.routing.deadlock.analyze_virtual_networks` proved the
    route set acyclic with: per virtual network, ``[src, dst, vc, rank]``
    for every hop the network uses, in rank order.  A route set that is not
    deadlock free gets no document, so it is never stored.  The degraded
    topology and the failure schedule are left out: the fault set rebuilds
    them.
    """
    report = plan.report or analyze_virtual_networks(plan.route_set,
                                                     plan.phase_boundaries)
    if report.ranks is None:
        return None  # not deadlock free: nothing to certify
    return {
        "schema": PLAN_SCHEMA_VERSION,
        # algorithm + per-flow hops with static VCs, in route order
        **route_set_fingerprint(plan.route_set),
        "phase_boundaries": dict(plan.phase_boundaries),
        "ranks": [[[*resource_hop(resource), rank]
                   for resource, rank in table.items()]
                  for table in report.ranks],
        "rerouted_flows": list(plan.rerouted_flows),
        "solves": {name: dataclasses.asdict(solution)
                   for name, solution in plan.solves.items()},
    }


def _restore_plan(document, spec: RouterSpec, topology: Topology,
                  flow_set: FlowSet, fault_set: FaultSet
                  ) -> Optional[RoutePlan]:
    """The plan a stored *document* describes, or ``None`` to reject it.

    Nothing loaded is trusted: every hop must be a channel of the
    (degraded) topology, every flow must have exactly one well-formed
    route, and the stored ranks must prove the route set deadlock free
    (:func:`~repro.routing.deadlock.certifies`: a rank for every hop, rising
    along every route inside each virtual network) — a check linear in the
    hops that accepts exactly the route sets
    :func:`~repro.routing.deadlock.analyze_virtual_networks` accepts, and
    never a cyclic one, whatever the ranks say.  A foreign layout surfaces
    as ``KeyError`` / ``TypeError`` / ``ValueError``, which the cache also
    reads as a miss.
    """
    if document["schema"] != PLAN_SCHEMA_VERSION:
        return None
    try:
        degraded = fault_set.degrade(topology)
        route_set = RouteSet(degraded, flow_set,
                             algorithm=str(document["algorithm"]))
        # routes share most hops: check and build each distinct one once
        resources: Dict[Tuple, object] = {}
        for name, hops in document["routes"].items():
            path = []
            for hop in map(tuple, hops):
                if hop not in resources:
                    src, dst, vc = hop
                    channel = degraded.channel(src, dst)
                    resources[hop] = channel if vc < 0 \
                        else VirtualChannel(channel, vc)
                path.append(resources[hop])
            route_set.add_path(flow_set.by_name(name), path)
        if not route_set.is_complete():
            return None
        boundaries = {str(name): int(boundary) for name, boundary
                      in document["phase_boundaries"].items()}
        if any(not 0 <= boundary <= route_set.route_by_name(name).hop_count
               for name, boundary in boundaries.items()):
            return None  # a split outside its route (unknown flow: raises)
        ranks = []
        for entries in document["ranks"]:
            table: Dict[object, object] = {}
            for src, dst, vc, rank in entries:
                resource = resources.get((src, dst, vc))
                if resource in table:
                    return None  # one hop, two ranks
                if resource is not None:  # a hop no route uses proves nothing
                    table[resource] = rank
            ranks.append(table)
        if not certifies(route_set, boundaries, ranks):
            return None
        report = DeadlockReport(
            deadlock_free=True,
            detail="certified by the stored ranks of each virtual network",
            ranks=tuple(ranks))
        return RoutePlan(
            topology=degraded,
            route_set=route_set,
            phase_boundaries=boundaries,
            schedule=fault_set.schedule(degraded),
            rerouted_flows=tuple(document["rerouted_flows"]),
            report=report,
            spec=spec,
            solves={name: MILPSolution(**fields)
                    for name, fields in document["solves"].items()},
            cached=True,
        )
    except (ReproError, AttributeError):
        # a hop off the topology, a broken chain, a list where a mapping
        # belongs: a hostile entry is a miss like any other
        return None


def plan_routes(name: str, topology: Topology, flow_set: FlowSet, config,
                faults=None, cache=None,
                strategies: Optional[Sequence[CDGStrategy]] = None
                ) -> RoutePlan:
    """Routes of router *name* for *flow_set*, ready to simulate.

    Builds a fresh router (randomized ones carry per-compute state) and
    plans through :func:`~repro.faults.plan_on`; *faults* is anything
    :meth:`~repro.faults.FaultSet.from_spec` accepts, and *strategies*
    replaces the CDG set *config* would give a BSOR router (the plan's
    cache key names them, so a one-CDG plan never answers for the full
    exploration).

    With a *cache* (a :class:`~repro.runner.cache.ResultCache`) the plan is
    looked up first and stored after solving, so it is solved once per
    (topology, flows, router, received options, fault set) for as long as
    any tier keeps it.  A plan with a non-optimal MILP solve — the time
    limit hit — is returned but not stored: what the solver reached in the
    time it had depends on the host's load, and a shared tier must not
    freeze that.  Neither is a plan whose route set is not deadlock free:
    it has no certificate to store.  Without a cache every call solves.
    """
    spec = router_spec(name)
    fault_set = FaultSet.from_spec(faults)
    options = _router_options(config, topology)
    if strategies is not None:
        options["strategies"] = tuple(strategies)
    if cache is not None:
        key = _plan_key(spec, topology, flow_set, options, fault_set)
        plan = cache.get_plan(key, lambda document: _restore_plan(
            document, spec, topology, flow_set, fault_set))
        if plan is not None:
            return plan
    plan = plan_on(spec.create(**options), topology, flow_set, fault_set)
    plan.spec = spec
    if cache is not None and all(solution.optimal
                                 for solution in plan.solves.values()):
        document = _plan_document(plan)
        if document is not None:
            cache.put_plan(key, document)
            plan.stored = True
    return plan


def _walk(topologies: Sequence[str], patterns: Sequence[str],
          routers: Sequence[str], fault_sets: Optional[Sequence],
          cdgs: Sequence[Optional[CDGStrategy]], config, cache, observer
          ) -> Iterator[Tuple[str, str, Dict, Optional[RoutePlan]]]:
    """The one cell walk: :func:`plan_matrix` is ``cdgs=(None,)`` (every
    router on its own strategy set), :func:`plan_per_cdg` a fifth axis of
    strategies planned on one at a time."""
    emitter = emitter_for(observer)
    fault_axis = [FaultSet.from_spec(entry)
                  for entry in (fault_sets or (None,))]
    for topology_name in topologies:
        topology = parse_topology(topology_name)
        topology_tag = topology_name.strip().lower()
        for pattern in patterns:
            flow_set = pattern_flow_set(pattern, topology, config)
            pattern_tag = canonical_pattern(pattern)
            for router_name, fault_set, cdg in itertools.product(
                    routers, fault_axis, cdgs):
                spec = router_spec(router_name)
                tags = {
                    "topology": topology_tag,
                    "pattern": pattern_tag,
                    "router": spec.name,
                    "display_name": spec.display_name,
                    "faults": fault_set.label(),
                }
                started = time.perf_counter()
                try:
                    plan = plan_routes(router_name, topology, flow_set,
                                       config, fault_set, cache=cache,
                                       strategies=cdg and (cdg,))
                except RoutingError:
                    if cdg is None:
                        raise
                    plan = None  # nothing feasible on this CDG alone
                if emitter is not None:
                    cell = {column: tags[column] for column in
                            ("router", "topology", "pattern", "faults")}
                    if plan is not None and plan.cached:
                        emitter.plan_cached(**cell)
                    else:
                        emitter.plan_solved(
                            seconds=time.perf_counter() - started,
                            stored=plan is not None and plan.stored, **cell)
                if cdg is not None:
                    tags["cdg"] = cdg.name
                tags["max_channel_load"] = None if plan is None else \
                    plan.route_set.max_channel_load()
                tags["average_hops"] = None if plan is None else \
                    plan.route_set.average_hop_count()
                yield topology_name, pattern, tags, plan


def plan_matrix(topologies: Sequence[str], patterns: Sequence[str],
                routers: Sequence[str], fault_sets: Optional[Sequence],
                config, cache=None, observer=None
                ) -> Iterator[Tuple[str, str, Dict, RoutePlan]]:
    """Plan every (topology x pattern x router x fault set) cell, in order.

    Yields ``(topology name, pattern, tags, plan)`` with the names as
    given and *tags* the canonical result-row columns of the cell:
    ``topology`` (lower-cased), ``pattern`` (canonical), ``router`` (registry
    slug), ``display_name``, ``faults`` (canonical label), and the route
    set's ``max_channel_load`` and ``average_hops``.  An empty or ``None``
    *fault_sets* is the single fault-free point.

    *cache* is handed to :func:`plan_routes`; *observer* receives one
    :class:`~repro.progress.PlanCached` or
    :class:`~repro.progress.PlanSolved` event per cell.
    """
    return _walk(topologies, patterns, routers, fault_sets, (None,), config,
                 cache, observer)


def plan_per_cdg(topologies: Sequence[str], patterns: Sequence[str],
                 routers: Sequence[str], config, cache=None, observer=None
                 ) -> Iterator[Tuple[str, str, Dict, Optional[RoutePlan]]]:
    """:func:`plan_matrix`, each cell planned on each paper CDG alone.

    What Tables 6.1 / 6.2 tabulate: one single-strategy plan per
    (topology, pattern, router) and column of
    :func:`~repro.routing.bsor.framework.paper_strategies`, fault-free, the
    strategy's name in the extra tag ``cdg``.  Each is a plan like any
    other — cached, verified on load, announced on *observer*.  A CDG on
    which the router finds no route set (or its MILP nothing within the
    time limit) yields a ``None`` plan with ``None`` route metrics: an
    empty cell, not a failed table.
    """
    return _walk(topologies, patterns, routers, None, paper_strategies(),
                 config, cache, observer)
