"""The route-planning funnel (:mod:`repro.planning`).

Five things are pinned here:

* **cache keys** — every front end now obtains routes through
  :func:`repro.planning.plan_routes`, so the ``simulation_cache_key`` of a
  planned point must equal the digest the hand-written router
  construction / fault-reroute blocks produced before the funnel existed
  (``tests/golden/route_plan_cache_keys.json``, recorded from that code;
  regenerate only deliberately with ``REPRO_UPDATE_GOLDEN=1``) — existing
  warm caches stay valid;
* **faults** — a non-empty fault set still goes through
  :func:`repro.faults.route_with_faults`: reachability pre-check and
  deadlock re-verification included;
* **no added work** — the fault-free path is one ``compute_routes`` call:
  no reachability walk, no deadlock analysis;
* **solved once** — with the runner's cache, a plan is looked up before
  it is solved and stored after: the cached plan equals the solved one in
  every input of ``simulation_cache_key``, a warm study or comparison
  performs zero solves and is byte-identical to the cold one, hostile
  entries are misses, and a plan with a non-optimal solve is never stored;
* **one funnel** — an ``ast`` walk over ``src/repro`` keeps router
  construction policy and ``compute_routes`` calls from growing back
  outside the funnel, ``SweepSpec`` construction inside the scenario
  executor / comparison matrix / runner, ``ExperimentConfig.from_profile``
  out of the CLI, and hand-built routers out of the figure benchmarks.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import os
from pathlib import Path

import pytest

import repro.faults
from repro.compare.matrix import CompareMatrix
from repro.compare.saturation import SaturationCriteria
from repro.exceptions import DeadlockError, ReproError, UnroutableFlowError
from repro.experiments.config import ExperimentConfig
from repro.planning import (
    parse_topology,
    pattern_flow_set,
    plan_matrix,
    plan_on,
    plan_routes,
    router_for,
)
from repro.progress import CollectingObserver
from repro.routing.base import RouteSet, RoutingAlgorithm
from repro.routing.bsor.dijkstra import DijkstraSelector
from repro.routing.bsor.framework import CDGStrategy
from repro.routing.bsor.milp import MILPSelector
from repro.routing.deadlock import DeadlockReport, analyze_virtual_networks
from repro.routing.registry import available_routers
from repro.runner.cache import ResultCache
from repro.runner.engine import ExperimentRunner
from repro.runner.fingerprint import (
    PLAN_SCHEMA_VERSION,
    resource_hop,
    route_set_fingerprint,
    simulation_cache_key,
    topology_fingerprint,
)
from repro.study.spec import Study
from repro.traffic import FlowSet

GOLDEN = Path(__file__).parent / "golden" / "route_plan_cache_keys.json"
SOURCE = Path(__file__).parent.parent / "src" / "repro"

QUICK = ExperimentConfig.quick()
FULL = dataclasses.replace(QUICK, explore_full_cdg_set=True)
FAULTS = ("none", "link:5-6", "link:5-6@200")

#: (topology, pattern, router, faults, config, label suffix)
CELLS = [("mesh4x4", "transpose", router, faults, QUICK, "")
         for router in available_routers() for faults in FAULTS]
CELLS += [
    # no registered router routes a torus; what the cell pins is that the
    # full CDG set stays a mesh-only policy (on a torus it would silently
    # shrink to the ad hoc CDGs and "succeed")
    ("torus4x4", "transpose", "bsor-dijkstra", "none", FULL, "|full-cdg-set"),
    ("mesh4x4", "transpose", "bsor-dijkstra", "none", FULL, "|full-cdg-set"),
]


def _label(cell) -> str:
    topology, pattern, router, faults, _, suffix = cell
    return f"{topology}|{pattern}|{router}|{faults}{suffix}"


def _planned_key(cell, cache=None) -> str:
    topology_name, pattern, router, faults, config, _ = cell
    topology = parse_topology(topology_name)
    flow_set = pattern_flow_set(pattern, topology, config)
    try:
        plan = plan_routes(router, topology, flow_set, config, faults,
                           cache=cache)
    except ReproError as error:
        return f"raises {type(error).__name__}"
    return simulation_cache_key(
        plan.topology, plan.route_set, config.simulation, 1.0,
        plan.phase_boundaries or None,
        fault_schedule=plan.schedule or None)


def _mesh4_transpose(config=QUICK):
    topology = parse_topology("mesh4x4")
    return topology, pattern_flow_set("transpose", topology, config)


# ----------------------------------------------------------------------
# (a) cache keys equal the pre-funnel construction's
# ----------------------------------------------------------------------
class TestCacheKeysMatchThePreFunnelConstruction:
    def test_golden_covers_exactly_the_cells(self):
        if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
            keys = {_label(cell): _planned_key(cell) for cell in CELLS}
            GOLDEN.write_text(json.dumps(keys, indent=2, sort_keys=True)
                              + "\n")
        assert sorted(json.loads(GOLDEN.read_text())) == \
            sorted(_label(cell) for cell in CELLS)

    @pytest.mark.parametrize("cell", CELLS, ids=_label)
    def test_planned_point_keeps_its_cache_key(self, cell):
        recorded = json.loads(GOLDEN.read_text())[_label(cell)]
        assert _planned_key(cell) == recorded, (
            f"{_label(cell)}: the funnel plans a different point than the "
            f"hand-written construction did — warm caches would miss; "
            f"regenerate only deliberately with REPRO_UPDATE_GOLDEN=1"
        )

    @pytest.mark.parametrize("cell", CELLS, ids=_label)
    def test_a_cached_plan_keeps_it_too(self, cell, tmp_path):
        recorded = json.loads(GOLDEN.read_text())[_label(cell)]
        cache = ResultCache(tmp_path)
        assert _planned_key(cell, cache) == recorded  # solved and stored
        assert _planned_key(cell, cache) == recorded  # out of the cache
        if recorded.startswith("raises"):
            assert (cache.plan_hits, cache.plan_misses) == (0, 2)
        else:
            assert (cache.plan_hits, cache.plan_misses) == (1, 1)

    def test_full_cdg_set_changes_the_plan(self):
        # the two bsor-dijkstra cells must differ, or the strategy-set
        # cells above (and the bugfix tests below) would pin nothing
        recorded = json.loads(GOLDEN.read_text())
        assert recorded["mesh4x4|transpose|bsor-dijkstra|none"] != \
            recorded["mesh4x4|transpose|bsor-dijkstra|none|full-cdg-set"]


# SHA-256 of ``flow_set_fingerprint`` of the paper's three applications, as
# ``app/topology/mapping`` (seed 0).  Recorded at the parent of ISSUE 19,
# where ``experiments.workloads.workload_flow_set`` built them through
# ``traffic.mapping.map_onto_mesh`` — the fork kept "so cached results stay
# valid".  The workload registry is the one construction now and must
# reproduce every digest: the flow set is in every simulation-point key and
# every route-plan key, so this is what keeps warm caches warm.
PAPER_APPLICATION_FLOW_SETS = {
    "h264/mesh4x4/default":
        "05a2283d8461b458c4c7198fbcb01c4e24ed4fb0f8b128dc9d0fdac300f473b9",
    "h264/mesh4x4/block":
        "05a2283d8461b458c4c7198fbcb01c4e24ed4fb0f8b128dc9d0fdac300f473b9",
    "h264/mesh4x4/row-major":
        "7fb28b3204e65c3f5260aac26115c9034a4b3738151dfe80deb9a57116b1dfbf",
    "h264/mesh4x4/spread":
        "04ecfbe2a80f7eb54f583d3bda52cc01dc178905d41c22857eb03e10b45cfb42",
    "h264/mesh4x4/random":
        "96ccf6e92d1bc30a3dbe6569e9477d88003ee99ff6f798fdd9847718f36b2b5d",
    "h264/mesh8x8/default":
        "4c73d4249377e132b976993cad9fc3fadcc959c8a33683b0ca217865c6620974",
    "h264/mesh8x8/block":
        "4c73d4249377e132b976993cad9fc3fadcc959c8a33683b0ca217865c6620974",
    "h264/mesh8x8/row-major":
        "7fb28b3204e65c3f5260aac26115c9034a4b3738151dfe80deb9a57116b1dfbf",
    "h264/mesh8x8/spread":
        "749a277a18f4f7c6e7d861f7a473cbe01c7a7fa55c8563c5b0d3ac41e6364fe7",
    "h264/mesh8x8/random":
        "8a8f275a0f1e02a524bf22644a3a1e1adc966cd075f9c4cfdb6b6937d89db016",
    "perf-modeling/mesh4x4/default":
        "a05ba27a29454fba0ce5f2852295dd0a943c48f9ee9f83a953fb37c0ecb5ff81",
    "perf-modeling/mesh4x4/block":
        "a05ba27a29454fba0ce5f2852295dd0a943c48f9ee9f83a953fb37c0ecb5ff81",
    "perf-modeling/mesh4x4/row-major":
        "543c6e36eb5e3a01c50aa0616ba706d2564196d4491cb870c13b53d3c4bd203c",
    "perf-modeling/mesh4x4/spread":
        "7f8b74cbe3c210f8c6671dbaab8f02ddf451995a2d079f924b0d2be96338ca3c",
    "perf-modeling/mesh4x4/random":
        "7eec378adadf596d8271d75ca1cfa26ac4ac1d4a5c5bee0d7d4313e33ae57f3e",
    "perf-modeling/mesh8x8/default":
        "5c831dbcd4a0d9978ebc0cd34ac7257d1fc142e63db7d5e9b3d82b9437b1c300",
    "perf-modeling/mesh8x8/block":
        "5c831dbcd4a0d9978ebc0cd34ac7257d1fc142e63db7d5e9b3d82b9437b1c300",
    "perf-modeling/mesh8x8/row-major":
        "543c6e36eb5e3a01c50aa0616ba706d2564196d4491cb870c13b53d3c4bd203c",
    "perf-modeling/mesh8x8/spread":
        "f138f1489521980100ee4767c56805897ba8dcad35dd17f6869fa4c9a776d42b",
    "perf-modeling/mesh8x8/random":
        "90d661117f5b81e5ced874da24730ba7f722ad0759ebaebeeabc4ac685cf88a8",
    "transmitter/mesh4x4/default":
        "bfbdc3a2a228750e2ec5ba3fc9a0806eb5937115d55fc4db065b90252f5126fe",
    "transmitter/mesh4x4/block":
        "bfbdc3a2a228750e2ec5ba3fc9a0806eb5937115d55fc4db065b90252f5126fe",
    "transmitter/mesh4x4/row-major":
        "bfbdc3a2a228750e2ec5ba3fc9a0806eb5937115d55fc4db065b90252f5126fe",
    "transmitter/mesh4x4/spread":
        "bfbdc3a2a228750e2ec5ba3fc9a0806eb5937115d55fc4db065b90252f5126fe",
    "transmitter/mesh4x4/random":
        "d39d7e86fb8152776d9b40c7e1256b24a230a0fa3162e5d8c22fcd1f79f62b05",
    "transmitter/mesh8x8/default":
        "60e59df2d519558e7f0713f1a71e7c30e47d76d153840a1b9fb621c87de5f8b7",
    "transmitter/mesh8x8/block":
        "60e59df2d519558e7f0713f1a71e7c30e47d76d153840a1b9fb621c87de5f8b7",
    "transmitter/mesh8x8/row-major":
        "bfbdc3a2a228750e2ec5ba3fc9a0806eb5937115d55fc4db065b90252f5126fe",
    "transmitter/mesh8x8/spread":
        "4a4aa90751c1ac315086cff603bd2ae13ddd38f982cdfba26ea0f2e7509dad9e",
    "transmitter/mesh8x8/random":
        "e36bba4959c07e6705a8ec11481b8334ab4e0083aacce4c52182760a7270226a",
}


@pytest.mark.parametrize("label", PAPER_APPLICATION_FLOW_SETS)
def test_paper_applications_keep_their_flow_sets(label):
    import hashlib

    from repro.runner.fingerprint import flow_set_fingerprint

    application, topology, mapping = label.split("/")
    config = dataclasses.replace(
        QUICK.with_seed(0),
        mapping_strategy=None if mapping == "default" else mapping)
    flow_set = pattern_flow_set(application, parse_topology(topology), config)
    text = json.dumps(flow_set_fingerprint(flow_set), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PAPER_APPLICATION_FLOW_SETS[label]


# ----------------------------------------------------------------------
# (b) faults still go through route_with_faults, verification included
# ----------------------------------------------------------------------
class TestFaultsAreStillVerified:
    @pytest.mark.parametrize("faults", ["link:5-6", "link:5-6@200"])
    def test_non_empty_fault_set_is_deadlock_reverified(self, monkeypatch,
                                                        faults):
        calls = []
        real = repro.faults.analyze_virtual_networks

        def spy(route_set, boundaries):
            calls.append(route_set)
            return real(route_set, boundaries)

        monkeypatch.setattr(repro.faults, "analyze_virtual_networks", spy)
        topology, flow_set = _mesh4_transpose()
        plan = plan_routes("dor", topology, flow_set, QUICK, faults)
        assert calls == [plan.route_set]
        assert plan.report is not None and plan.report.deadlock_free
        assert bool(plan.schedule) == ("@" in faults)
        assert (plan.topology is topology) == ("@" in faults)

    def test_disconnected_flow_raises_unroutable(self):
        topology, flow_set = _mesh4_transpose()
        with pytest.raises(UnroutableFlowError, match="no path from node 1"):
            plan_routes("dor", topology, flow_set, QUICK, "router:1")

    def test_cyclic_degraded_routes_raise_deadlock_error(self, monkeypatch):
        monkeypatch.setattr(
            repro.faults, "analyze_virtual_networks",
            lambda route_set, boundaries: DeadlockReport(
                deadlock_free=False, detail="forced by the test"))
        topology, flow_set = _mesh4_transpose()
        with pytest.raises(DeadlockError, match="does not support fault set"):
            plan_routes("dor", topology, flow_set, QUICK, "link:5-6")


# ----------------------------------------------------------------------
# (c) the fault-free path does exactly the work it did
# ----------------------------------------------------------------------
class TestFaultFreePathAddsNoWork:
    @pytest.fixture
    def forbidden(self, monkeypatch):
        def forbid(name):
            def fail(*args, **kwargs):
                raise AssertionError(f"fault-free planning called {name}")
            monkeypatch.setattr(repro.faults, name, fail)

        forbid("check_reachability")
        forbid("analyze_virtual_networks")
        forbid("route_with_faults")

    @pytest.mark.parametrize("router", available_routers())
    def test_no_reachability_walk_and_no_deadlock_analysis(self, forbidden,
                                                           router):
        topology, flow_set = _mesh4_transpose()
        plan = plan_routes(router, topology, flow_set, QUICK)
        assert plan.topology is topology
        assert plan.route_set.is_complete()
        assert plan.report is None and not plan.schedule
        assert plan.spec.name == router and plan.router is not None
        for faults in ("none", "", None, ()):
            assert plan_on(router_for(router, QUICK, topology), topology,
                           flow_set, faults).report is None

    def test_matrix_walk_plans_each_cell_with_one_compute_routes(
            self, forbidden, monkeypatch):
        calls = []
        for cls in _routing_classes():
            original = cls.__dict__["compute_routes"]

            def counted(self, topology, flow_set, _original=original):
                calls.append(type(self).__name__)
                return _original(self, topology, flow_set)

            monkeypatch.setattr(cls, "compute_routes", counted)
        cells = list(plan_matrix(
            ["Mesh4x4"], ["transpose", "bit_complement"],
            ["xy", "romm", "BSOR-Dijkstra"], None, QUICK))
        assert len(cells) == len(calls) == 6
        name, pattern, tags, plan = cells[-1]
        assert (name, pattern) == ("Mesh4x4", "bit_complement")
        assert tags == {
            "topology": "mesh4x4", "pattern": "bit-complement",
            "router": "bsor-dijkstra", "display_name": "BSOR-Dijkstra",
            "faults": "none",
            "max_channel_load": plan.route_set.max_channel_load(),
            "average_hops": plan.route_set.average_hop_count(),
        }


# ----------------------------------------------------------------------
# (d) solved once: the route-plan cache
# ----------------------------------------------------------------------
CACHE_FAULTS = ("none", "link:5-6", "link:5-6,link:9>10", "link:5-6@200",
                "link:1-2,link:5-6@200")
CACHE_CELLS = [(topology, router, faults)
               for topology in ("mesh4x4", "torus4x4", "ring8")
               for router in available_routers()
               for faults in CACHE_FAULTS]


def _simulation_inputs(plan, config=QUICK):
    """Everything of a plan that reaches ``simulation_cache_key``."""
    return {
        "topology": topology_fingerprint(plan.topology),
        "routes": route_set_fingerprint(plan.route_set),
        "route order": [route.flow.name for route in plan.route_set],
        "phase_boundaries": sorted(plan.phase_boundaries.items()),
        "schedule": plan.schedule.to_payload(),
        "key": simulation_cache_key(
            plan.topology, plan.route_set, config.simulation, 1.0,
            plan.phase_boundaries or None,
            fault_schedule=plan.schedule or None),
    }


def _forbid_solving(monkeypatch):
    """Any route selection or CDG construction from here on is a failure."""
    def forbid(cls, name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{cls.__name__}.{name} ran on a warm pass")
        monkeypatch.setattr(cls, name, fail)

    forbid(MILPSelector, "select_routes")
    forbid(DijkstraSelector, "select_routes")
    forbid(CDGStrategy, "build")


class TestCachedPlanEqualsSolvedPlan:
    @pytest.mark.parametrize(
        "cell", CACHE_CELLS, ids=lambda cell: "|".join(cell))
    def test_in_every_simulation_input(self, cell, tmp_path):
        topology_name, router, faults = cell
        topology = parse_topology(topology_name)
        # transpose needs an even number of address bits; ring8 has three
        pattern = "bit-complement" if topology_name == "ring8" \
            else "transpose"
        flow_set = pattern_flow_set(pattern, topology, QUICK)
        cache = ResultCache(tmp_path)
        try:
            solved = plan_routes(router, topology, flow_set, QUICK, faults,
                                 cache=cache)
        except ReproError as error:
            # not routable here (no registered router routes a torus or a
            # ring): nothing is stored and the second call says the same
            assert cache.stats()["plan_entries"] == 0
            with pytest.raises(type(error)):
                plan_routes(router, topology, flow_set, QUICK, faults,
                            cache=cache)
            return
        assert not solved.cached and solved.stored
        assert solved.router is not None
        cached = plan_routes(router, topology, flow_set, QUICK, faults,
                             cache=cache)
        assert cached.cached and not cached.stored and cached.router is None
        assert _simulation_inputs(cached) == _simulation_inputs(solved)
        assert _simulation_inputs(cached) == _simulation_inputs(
            plan_routes(router, topology, flow_set, QUICK, faults))
        assert cached.spec is solved.spec
        assert cached.rerouted_flows == solved.rerouted_flows
        assert cached.solves == solved.solves
        assert cached.route_set.flow_set is flow_set
        assert cached.report is not None and cached.report.deadlock_free
        # the degraded topology and the schedule are rebuilt, not stored
        assert (cached.topology is topology) == (solved.topology is topology)

    def test_something_was_routable_on_every_fault_set(self, tmp_path):
        # the parametrised test above must not be vacuous
        topology, flow_set = _mesh4_transpose()
        for router in available_routers():
            for faults in CACHE_FAULTS:
                assert plan_routes(router, topology, flow_set, QUICK,
                                   faults).route_set.is_complete()

    def test_solver_diagnostics_travel_through_the_cache(self, tmp_path):
        topology, flow_set = _mesh4_transpose()
        cache = ResultCache(tmp_path)
        solved = plan_routes("bsor-milp", topology, flow_set, QUICK,
                             cache=cache)
        assert list(solved.solves) == ["north-last", "west-first",
                                       "negative-first", "ad-hoc-1",
                                       "ad-hoc-2"]
        cached = plan_routes("bsor-milp", topology, flow_set, QUICK,
                             cache=cache)
        for name, solution in cached.solves.items():
            assert solution == solved.solves[name]
            assert solution.optimal and not solution.time_limit_hit
            assert solution.num_variables > 0 and solution.wall_seconds > 0
        assert plan_routes("dor", topology, flow_set, QUICK,
                           cache=cache).solves == {}


class TestPlanKey:
    def _cached_under(self, tmp_path, config, router="bsor-milp",
                      flow_set=None, faults=None):
        """Plan under QUICK, then ask: is *config*'s plan the same entry?"""
        topology, default_flows = _mesh4_transpose()
        cache = ResultCache(tmp_path)
        plan_routes(router, topology, default_flows, QUICK, cache=cache)
        return plan_routes(router, topology, flow_set or default_flows,
                           config, faults, cache=cache).cached

    @pytest.mark.parametrize("config", [
        pytest.param(dataclasses.replace(QUICK, offered_rates=(9.0,)),
                     id="offered_rates"),
        pytest.param(dataclasses.replace(QUICK, mesh_size=8), id="mesh_size"),
        pytest.param(QUICK.with_vcs(4), id="num_vcs"),
        # bsor-milp's factory takes no seed
        pytest.param(QUICK.with_seed(7), id="seed"),
    ])
    def test_how_a_plan_is_simulated_is_not_in_the_key(self, tmp_path,
                                                       config):
        assert self._cached_under(tmp_path, config)
        assert self._cached_under(tmp_path / "backend",
                                  QUICK.with_backend("reference"))

    @pytest.mark.parametrize("change", [
        {"hop_slack": 0}, {"milp_time_limit": 20.0},
        {"explore_full_cdg_set": True},
    ], ids=lambda change: next(iter(change)))
    def test_every_option_the_factory_receives_is(self, tmp_path, change):
        assert not self._cached_under(tmp_path,
                                      dataclasses.replace(QUICK, **change))

    def test_the_seed_is_for_the_routers_that_take_one(self, tmp_path):
        reseeded = QUICK.with_seed(7)
        for router, keyed in (("romm", True), ("valiant", True),
                              ("o1turn", True), ("dor", False),
                              ("bsor-dijkstra", False)):
            assert self._cached_under(tmp_path / router, reseeded,
                                      router=router) != keyed

    def test_the_milp_time_limit_is_for_the_router_that_takes_it(
            self, tmp_path):
        longer = dataclasses.replace(QUICK, milp_time_limit=20.0)
        assert self._cached_under(tmp_path, longer, router="bsor-dijkstra")

    def test_the_hop_slack_is_for_the_router_that_takes_it(self, tmp_path):
        # Dijkstra has no hop bound: a changed slack is the same plan
        slacker = dataclasses.replace(QUICK, hop_slack=0)
        assert not self._cached_under(tmp_path / "milp", slacker)
        assert self._cached_under(tmp_path / "dijkstra", slacker,
                                  router="bsor-dijkstra")

    def test_router_faults_demand_and_flow_order_are(self, tmp_path):
        topology, flow_set = _mesh4_transpose()
        flows = list(flow_set)
        heavier = FlowSet([flows[0].with_demand(flows[0].demand * 2),
                           *flows[1:]], name=flow_set.name)
        reordered = FlowSet([flows[1], flows[0], *flows[2:]],
                            name=flow_set.name)
        renamed = FlowSet(flows, name="another name")
        assert not self._cached_under(tmp_path / "a", QUICK,
                                      flow_set=heavier)
        assert not self._cached_under(tmp_path / "b", QUICK,
                                      flow_set=reordered)
        assert self._cached_under(tmp_path / "c", QUICK, flow_set=renamed)
        assert not self._cached_under(tmp_path / "d", QUICK,
                                      faults="link:5-6")
        assert not self._cached_under(tmp_path / "e", QUICK,
                                      faults="link:5-6@200")
        cache = ResultCache(tmp_path / "f")
        plan_routes("bsor-milp", topology, flow_set, QUICK, "link:5-6",
                    cache=cache)
        for same in ("link:6-5", "link:5-6,link:5-6", ["link:5-6"]):
            assert plan_routes("bsor-milp", topology, flow_set, QUICK, same,
                               cache=cache).cached
        assert not plan_routes("bsor-dijkstra", topology, flow_set, QUICK,
                               "link:5-6", cache=cache).cached
        # the same sixteen nodes and flows on another channel inventory
        assert not plan_routes("bsor-milp", parse_topology("mesh8x2"),
                               flow_set, QUICK, "link:5-6",
                               cache=cache).cached


class TestNonOptimalPlansAreNotStored:
    def test_under_a_tiny_time_limit(self, tmp_path):
        """Whatever a rung of the ladder does on this host — every CDG cut
        short (raises), some (returned, not stored), none (stored) — a plan
        is stored exactly when every solve was optimal, and one that was
        not is solved again on the next call, which may itself raise."""
        topology, flow_set = _mesh4_transpose()
        for rung, limit in enumerate((1e-9, 3e-4, 1e-3, 3e-3, 1e-2)):
            config = dataclasses.replace(QUICK, milp_time_limit=limit)
            cache = ResultCache(tmp_path / str(rung))
            try:
                plan = plan_routes("bsor-milp", topology, flow_set, config,
                                   cache=cache)
            except ReproError:
                assert cache.stats()["plan_entries"] == 0
                continue
            optimal = all(solution.optimal
                          for solution in plan.solves.values())
            assert plan.stored == optimal
            assert cache.stats()["plan_entries"] == int(optimal)
            try:
                again = plan_routes("bsor-milp", topology, flow_set, config,
                                    cache=cache)
            except ReproError:
                # solved again, and this time every CDG was cut short: only
                # a plan that was not stored can get here
                assert not optimal
                continue
            assert again.cached == optimal

    def test_a_plan_with_one_solve_cut_short_is_returned_not_stored(
            self, tmp_path, monkeypatch):
        import repro.routing.bsor.milp as milp_module

        real = milp_module.milp
        calls = []

        def limit_hits_the_second_solve(**kwargs):
            result = real(**kwargs)
            calls.append(result)
            if len(calls) % 5 == 2:
                # HiGHS at its time limit with an incumbent in hand
                result.status = 1
                result.message = "Time limit reached. (HiGHS Status 13)"
            return result

        monkeypatch.setattr(milp_module, "milp", limit_hits_the_second_solve)
        topology, flow_set = _mesh4_transpose()
        cache = ResultCache(tmp_path, shared_dir=tmp_path / "shared")
        observer = CollectingObserver()
        for _ in range(2):
            [(_, _, _, plan)] = plan_matrix(
                ["mesh4x4"], ["transpose"], ["bsor-milp"], None, QUICK,
                cache=cache, observer=observer)
            assert plan.route_set.is_complete()
            assert not plan.cached and not plan.stored
            assert [solution.time_limit_hit
                    for solution in plan.solves.values()] == \
                [False, True, False, False, False]
        assert len(calls) == 10  # solved again on the second run
        assert not list(tmp_path.rglob("*.json"))
        assert [(event.kind, event.stored) for event in observer.events] == \
            [("plan_solved", False)] * 2


def _stored_plan(directory):
    """(path, payload) of the single plan entry under a cache directory."""
    [path] = (directory / "plans").glob("*.json")
    return path, json.loads(path.read_text())


def _ranks_of(payload):
    """A deep copy of a stored plan's rank table, to damage."""
    return json.loads(json.dumps(payload["plan"]["ranks"]))


def _with_ranks(payload, ranks):
    return {**payload, "plan": {**payload["plan"], "ranks": ranks}}


def _certificate(topology, flow_set, routes, boundaries=None):
    """The rank table a plan of *routes* (stored layout) is stored with."""
    route_set = RouteSet(topology, flow_set)
    for name, hops in routes.items():
        route_set.add_node_path(flow_set.by_name(name),
                                [hops[0][0]] + [hop[1] for hop in hops])
    report = analyze_virtual_networks(route_set, boundaries or {})
    return [[[*resource_hop(resource), rank]
             for resource, rank in table.items()] for table in report.ranks]


class TestALoadedPlanIsNeverTrusted:
    def _replan(self, tmp_path, damage, router="dor", faults=None,
                flow_set=None):
        """Store a plan, *damage* its entry, plan again: must be a miss
        that solves, equals the first plan and repairs the entry."""
        topology, default_flows = _mesh4_transpose()
        flow_set = flow_set or default_flows
        cache = ResultCache(tmp_path)
        first = plan_routes(router, topology, flow_set, QUICK, faults,
                            cache=cache)
        path, payload = _stored_plan(tmp_path)
        damaged = damage(payload)
        path.write_text(damaged if isinstance(damaged, str)
                        else json.dumps(damaged))
        second = plan_routes(router, topology, flow_set, QUICK, faults,
                             cache=cache)
        assert not second.cached and second.stored
        assert _simulation_inputs(second) == _simulation_inputs(first)
        assert (cache.plan_hits, cache.plan_misses) == (0, 2)
        assert _stored_plan(tmp_path)[1] == payload  # overwritten
        assert plan_routes(router, topology, flow_set, QUICK, faults,
                           cache=cache).cached

    @pytest.mark.parametrize("text", ["", "{", "no json", '{"key": 1, "pla'],
                             ids=["zero-byte", "open", "non-json",
                                  "truncated"])
    def test_unreadable_entry(self, tmp_path, text):
        self._replan(tmp_path, lambda payload: text)

    def test_leftover_temp_file(self, tmp_path):
        topology, flow_set = _mesh4_transpose()
        (tmp_path / "plans").mkdir()
        (tmp_path / "plans" / ".tmp-77-abc.part").write_text('{"plan": {')
        cache = ResultCache(tmp_path)
        assert not plan_routes("dor", topology, flow_set, QUICK,
                               cache=cache).cached
        assert plan_routes("dor", topology, flow_set, QUICK,
                           cache=cache).cached
        assert cache.stats()["plan_entries"] == 1

    @pytest.mark.parametrize("field, value", [
        ("schema", 0), ("schema", None), ("routes", []), ("routes", None),
        ("phase_boundaries", []), ("phase_boundaries", {"f1": "two"}),
        ("phase_boundaries", {"f1": 99}), ("phase_boundaries", {"f1": -1}),
        ("phase_boundaries", {"not-a-flow": 1}),
        ("solves", {"north-last": {"bogus": 1}}), ("solves", 3),
        ("rerouted_flows", 5), ("algorithm", None),
    ], ids=lambda value: json.dumps(value))
    def test_foreign_layout(self, tmp_path, field, value):
        def damage(payload):
            plan = dict(payload["plan"])
            if value is None:
                del plan[field]
            else:
                plan[field] = value
            return {**payload, "plan": plan}

        self._replan(tmp_path, damage)

    def test_missing_flow_extra_flow_and_malformed_hops(self, tmp_path):
        def without_a_flow(payload):
            routes = dict(payload["plan"]["routes"])
            routes.pop(sorted(routes)[0])
            return {**payload, "plan": {**payload["plan"], "routes": routes}}

        def with_an_unknown_flow(payload):
            routes = dict(payload["plan"]["routes"])
            routes["not-a-flow"] = [[0, 1, -1]]
            return {**payload, "plan": {**payload["plan"], "routes": routes}}

        def rewrite_first_route(hops):
            def damage(payload):
                routes = dict(payload["plan"]["routes"])
                routes[next(iter(routes))] = hops
                return {**payload,
                        "plan": {**payload["plan"], "routes": routes}}
            return damage

        for index, damage in enumerate([
                without_a_flow, with_an_unknown_flow,
                rewrite_first_route([]),              # an empty route
                rewrite_first_route([[0, 1]]),        # a hop without its VC
                rewrite_first_route([[0, "1", -1]]),  # not node indices
                rewrite_first_route([[0, 5, -1]]),    # 0 -> 5 is no channel
                rewrite_first_route([[0, 1, -1], [2, 3, -1]]),  # no chain
                rewrite_first_route([[0, 1, -1], [1, 2, 0]]),   # mixed VCs
                rewrite_first_route([[14, 15, -1]]),  # another flow's hop
                rewrite_first_route(7)]):
            self._replan(tmp_path / str(index), damage)

    def test_hop_on_a_failed_link(self, tmp_path):
        """An entry written for the intact mesh, copied under the key of a
        faulted plan: its routes cross the dead link."""
        topology, flow_set = _mesh4_transpose()
        intact = plan_routes("dor", topology, flow_set, QUICK)
        route = next(route for route in intact.route_set
                     if route.hop_count > 1)
        dead = route.channels[0]
        faults = f"link:{dead.src}>{dead.dst}"
        healthy = ResultCache(tmp_path / "intact")
        plan_routes("dor", topology, flow_set, QUICK, cache=healthy)
        _, fault_free_payload = _stored_plan(tmp_path / "intact")

        def damage(payload):
            assert payload["plan"]["routes"] != \
                fault_free_payload["plan"]["routes"]
            return {**payload, "plan": fault_free_payload["plan"]}

        self._replan(tmp_path / "faulted", damage, faults=faults)

    # -- the certificate: a stored plan's proof of deadlock freedom --------
    def test_an_entry_from_before_the_certificate(self, tmp_path):
        def schema_one(payload):
            plan = {field: value for field, value in payload["plan"].items()
                    if field != "ranks"}
            return {**payload, "plan": {**plan, "schema": 1}}

        assert PLAN_SCHEMA_VERSION == 2
        self._replan(tmp_path, schema_one)

    def test_missing_ranks(self, tmp_path):
        def damage(payload):
            plan = dict(payload["plan"])
            del plan["ranks"]
            return {**payload, "plan": plan}

        self._replan(tmp_path, damage)

    @pytest.mark.parametrize("rank", ["3", True, 1.0, None],
                             ids=["string", "bool", "float", "null"])
    def test_a_rank_that_is_not_an_int(self, tmp_path, rank):
        def damage(payload):
            ranks = _ranks_of(payload)
            ranks[0][0][3] = rank
            return _with_ranks(payload, ranks)

        self._replan(tmp_path, damage)

    def test_a_used_hop_without_a_rank(self, tmp_path):
        def damage(payload):
            ranks = _ranks_of(payload)
            del ranks[0][len(ranks[0]) // 2]
            return _with_ranks(payload, ranks)

        self._replan(tmp_path, damage)

    def test_one_hop_ranked_twice(self, tmp_path):
        """The lowest-ranked hop listed again under a lower rank: either
        rank alone would still prove the set acyclic, but a table that
        says two things about one hop is not a certificate."""
        def damage(payload):
            ranks = _ranks_of(payload)
            lowest = min(ranks[0], key=lambda entry: entry[3])
            ranks[0].append([*lowest[:3], lowest[3] - 1])
            return _with_ranks(payload, ranks)

        self._replan(tmp_path, damage)

    def test_consecutive_hops_with_equal_ranks(self, tmp_path):
        def damage(payload):
            ranks = _ranks_of(payload)
            table = {tuple(entry[:3]): entry for entry in ranks[0]}
            hops = next(hops for hops in payload["plan"]["routes"].values()
                        if len(hops) > 1)
            table[tuple(hops[1])][3] = table[tuple(hops[0])][3]
            return _with_ranks(payload, ranks)

        self._replan(tmp_path, damage)

    def test_increasing_ranks_on_hops_that_are_not_chained(self, tmp_path):
        """A well-ranked route that jumps from 0->1 to 2->3.  ``Route``
        refuses the unchained path while the plan is rebuilt, before the
        certificate is checked; ``certifies``' own chain check is exercised
        by ``tests/invariants/test_invariant_certificate.py``."""
        def damage(payload):
            routes = dict(payload["plan"]["routes"])
            name = next(iter(routes))
            routes[name] = [[0, 1, -1], [2, 3, -1]]
            ranks = [[[0, 1, -1, 0], [2, 3, -1, 1]]
                     + [entry for entry in _ranks_of(payload)[0]
                        if entry[:3] not in ([0, 1, -1], [2, 3, -1])]]
            return _with_ranks({**payload, "plan": {**payload["plan"],
                                                    "routes": routes}},
                               ranks)

        self._replan(tmp_path, damage)

    @pytest.mark.parametrize("forgery", ["monotone-until-the-last",
                                         "one-rank-per-occurrence"])
    def test_a_cyclic_route_set_with_ranks_edited_to_look_increasing(
            self, tmp_path, forgery):
        """The four routes of one square chase each other.  No rank table
        can make all four climb; a forger either leaves one edge falling
        or ranks the same hop twice."""
        ring = [(0, 1, 5), (1, 5, 4), (5, 4, 0), (4, 0, 1)]
        flow_set = FlowSet.from_tuples(
            [(source, destination, 1.0) for source, _, destination in ring],
            name="square")
        cyclic = {flow.name: [[a, b, -1], [b, c, -1]]
                  for flow, (a, b, c) in zip(flow_set, ring)}
        if forgery == "monotone-until-the-last":
            forged = [[a, b, -1, rank] for rank, (a, b, _) in enumerate(ring)]
        else:
            forged = [entry for rank, hops in enumerate(cyclic.values())
                      for entry in ([*hops[0], 2 * rank],
                                    [*hops[1], 2 * rank + 1])]

        def damage(payload):
            return _with_ranks({**payload, "plan": {**payload["plan"],
                                                    "routes": cyclic}},
                               [forged])

        self._replan(tmp_path, damage, flow_set=flow_set)

    def test_an_entry_cut_short_inside_its_ranks(self, tmp_path):
        def damage(payload):
            text = json.dumps(payload)
            return text[:text.index('"ranks"') + 20]

        self._replan(tmp_path, damage)

    def test_route_set_with_a_dependence_cycle(self, tmp_path):
        """Four well-formed routes chasing each other round one square of
        the mesh: every hop is a channel, every route a chain from its
        source to its destination — and the set deadlocks."""
        ring = [(0, 1, 5), (1, 5, 4), (5, 4, 0), (4, 0, 1)]
        flow_set = FlowSet.from_tuples(
            [(source, destination, 1.0) for source, _, destination in ring],
            name="square")
        cyclic = {flow.name: [[a, b, -1], [b, c, -1]]
                  for flow, (a, b, c) in zip(flow_set, ring)}

        def damage(payload):
            assert sorted(payload["plan"]["routes"]) == sorted(cyclic)
            return {**payload, "plan": {**payload["plan"],
                                        "routes": cyclic}}

        self._replan(tmp_path, damage, flow_set=flow_set)
        # the same document is a hit as soon as the cycle is gone (and the
        # ranks are the ones that prove it)
        acyclic = dict(cyclic, f4=[[4, 5, -1], [5, 1, -1]])
        topology = parse_topology("mesh4x4")
        cache = ResultCache(tmp_path)
        path, payload = _stored_plan(tmp_path)
        path.write_text(json.dumps(
            {**payload, "plan": {**payload["plan"], "routes": acyclic,
                                 "ranks": _certificate(topology, flow_set,
                                                       acyclic)}}))
        plan = plan_routes("dor", topology, flow_set, QUICK, cache=cache)
        assert plan.cached
        assert route_set_fingerprint(plan.route_set)["routes"] == acyclic

    def test_phase_boundaries_are_part_of_the_verification(self, tmp_path):
        """ROMM is deadlock free only under its two-network split: an entry
        that lost its boundaries must not be accepted on the routes alone
        when they cycle in a single network."""
        topology, flow_set = _mesh4_transpose()
        for seed in range(20):
            config = QUICK.with_seed(seed)
            plan = plan_routes("valiant", topology, flow_set, config)
            if not repro.faults.analyze_virtual_networks(
                    plan.route_set, {}).deadlock_free:
                break
        else:
            pytest.skip("no seed made Valiant cyclic in one network")

        def damage(payload):
            return {**payload, "plan": {**payload["plan"],
                                        "phase_boundaries": {}}}

        cache = ResultCache(tmp_path)
        plan_routes("valiant", topology, flow_set, config, cache=cache)
        path, payload = _stored_plan(tmp_path)
        path.write_text(json.dumps(damage(payload)))
        assert not plan_routes("valiant", topology, flow_set, config,
                               cache=cache).cached


class TestPlanTiers:
    def test_shared_tier_read_through_with_local_write_back(self, tmp_path):
        topology, flow_set = _mesh4_transpose()
        host_a = ResultCache(tmp_path / "a", shared_dir=tmp_path / "shared")
        solved = plan_routes("bsor-dijkstra", topology, flow_set, QUICK,
                             "link:5-6", cache=host_a)
        host_b = ResultCache(tmp_path / "b", shared_dir=tmp_path / "shared")
        assert not list((tmp_path / "b").rglob("*.json"))
        cached = plan_routes("bsor-dijkstra", topology, flow_set, QUICK,
                             "link:5-6", cache=host_b)
        assert cached.cached
        assert _simulation_inputs(cached) == _simulation_inputs(solved)
        [written_back] = (tmp_path / "b" / "plans").glob("*.json")
        assert written_back.read_bytes() == \
            (tmp_path / "shared" / "plans" / written_back.name).read_bytes()
        # the next read never leaves the host
        alone = ResultCache(tmp_path / "b")
        assert plan_routes("bsor-dijkstra", topology, flow_set, QUICK,
                           "link:5-6", cache=alone).cached

    def test_a_cold_pass_leaves_only_results_at_the_top_level(self,
                                                              tmp_path):
        study = Study.from_dict(WARM_STUDY)
        study.run(profile="quick", cache_dir=str(tmp_path))
        top_level = [path for path in tmp_path.glob("*.json")
                     if not path.name.startswith(".")]
        assert top_level and all(
            "statistics" in json.loads(path.read_text())
            for path in top_level)
        cache = ResultCache(tmp_path)
        assert len(cache) == len(top_level) == cache.stats()["entries"]
        assert cache.stats()["plan_entries"] == \
            len(list((tmp_path / "plans").glob("*.json"))) == 12


WARM_STUDY = {
    "name": "warm",
    "scenarios": [
        {"name": "sweep", "topologies": ["mesh4x4"],
         "patterns": ["transpose"],
         "routers": ["dor", "romm", "bsor-dijkstra", "bsor-milp"],
         "faults": ["none", "link:5-6", "link:5-6@200"], "vcs": [2],
         "rates": [0.5]},
    ],
}


class TestWarmMeansZeroSolves:
    def test_warm_run_study_is_byte_identical_and_plans_nothing(
            self, tmp_path, monkeypatch):
        cold_events, warm_events = CollectingObserver(), CollectingObserver()
        cold = Study.from_dict(WARM_STUDY).run(
            profile="quick", cache_dir=str(tmp_path), observer=cold_events)
        assert cold.report.points_simulated == 12
        assert [event.kind for event in cold_events.events
                if event.kind.startswith("plan_")] == ["plan_solved"] * 12
        assert all(event.stored for event in cold_events.events
                   if event.kind == "plan_solved")

        _forbid_solving(monkeypatch)
        warm = Study.from_dict(WARM_STUDY).run(
            profile="quick", cache_dir=str(tmp_path), observer=warm_events)
        assert warm.to_json() == cold.to_json()
        assert warm.render_markdown() == cold.render_markdown()
        assert warm.report.points_simulated == 0
        kinds = [event.kind for event in warm_events.events]
        assert kinds.count("plan_cached") == 12
        assert "plan_solved" not in kinds and "point_finished" not in kinds
        first = warm_events.events[0]
        assert (first.router, first.topology, first.pattern, first.faults) \
            == ("dor", "mesh4x4", "transpose", "none")

    def test_warm_compare_matrix_is_byte_identical_and_plans_nothing(
            self, tmp_path, monkeypatch):
        def run(observer):
            matrix = CompareMatrix(
                config=QUICK, runner=ExperimentRunner(cache=str(tmp_path)),
                observer=observer,
                criteria=SaturationCriteria.bounded(0.5, 2.5, 1.0))
            rows, report = matrix.run(
                ["mesh4x4"], ["transpose"],
                ["dor", "bsor-dijkstra", "bsor-milp"],
                fault_sets=["none", "link:5-6,link:9-10@200"])
            return rows.to_json(), report

        cold_events, warm_events = CollectingObserver(), CollectingObserver()
        cold, cold_report = run(cold_events)
        assert cold_report.points_simulated > 0
        assert cold_events.kinds()[:6] == ["plan_solved"] * 6
        _forbid_solving(monkeypatch)
        warm, warm_report = run(warm_events)
        assert warm == cold
        assert warm_report.points_simulated == 0
        assert warm_events.kinds()[:6] == ["plan_cached"] * 6
        assert "plan_solved" not in warm_events.kinds()

    def test_without_a_cache_every_run_solves_every_cell(self, monkeypatch):
        calls = []
        for cls in _routing_classes():
            original = cls.__dict__["compute_routes"]

            def counted(self, topology, flow_set, _original=original):
                calls.append(type(self).__name__)
                return _original(self, topology, flow_set)

            monkeypatch.setattr(cls, "compute_routes", counted)
        study = {"name": "uncached", "scenarios": [
            {"name": "sweep", "topologies": ["mesh4x4"],
             "patterns": ["transpose"],
             "routers": ["dor", "bsor-dijkstra"], "rates": [0.5]}]}
        for _ in range(2):
            del calls[:]
            observer = CollectingObserver()
            result = Study.from_dict(study).run(profile="quick", cache=False,
                                                observer=observer)
            assert result.report.points_simulated == 2
            assert len(calls) == 2  # one compute_routes per cell, as ever
            assert [(event.kind, event.stored) for event in observer.events
                    if event.kind.startswith("plan_")] == \
                [("plan_solved", False)] * 2


def _routing_classes():
    found, pending = [], list(RoutingAlgorithm.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "compute_routes" in vars(cls):
            found.append(cls)
    return found


# ----------------------------------------------------------------------
# bugfix: profile and the occupancy heatmap plan like run/sweep/figure
# ----------------------------------------------------------------------
class TestEveryFrontEndPlansOnTheSameStrategySet:
    """``explore_full_cdg_set=True`` (what ``--profile paper`` sets) used to
    be dropped by ``repro profile`` and ``report.occupancy_heatmap``, which
    silently planned BSOR on the five paper CDGs instead of all fifteen."""

    @pytest.fixture
    def expected(self):
        topology, flow_set = _mesh4_transpose(FULL)
        full = plan_routes("bsor-dijkstra", topology, flow_set, FULL)
        paper = plan_routes("bsor-dijkstra", topology, flow_set, QUICK)
        assert route_set_fingerprint(full.route_set) != \
            route_set_fingerprint(paper.route_set)
        return full.route_set

    def test_profile_command_plans_on_the_full_cdg_set(self, monkeypatch,
                                                       expected):
        import repro.simulator.simulation as simulation
        from repro.cli import runner_commands

        simulated = []
        real = simulation.simulate_route_set

        def spy(topology, route_set, *args, **kwargs):
            simulated.append(route_set)
            return real(topology, route_set, *args, **kwargs)

        monkeypatch.setattr(simulation, "simulate_route_set", spy)
        runner_commands.run_profile(argparse.Namespace(
            workload="transpose", algorithm="bsor-dijkstra", rate=1.0,
            top=5, backend=None, profile="paper"), FULL)
        [route_set] = simulated
        assert route_set_fingerprint(route_set) == \
            route_set_fingerprint(expected)

    def test_occupancy_heatmap_plans_on_the_full_cdg_set(self, expected):
        from repro.report import occupancy_heatmap

        heatmap = occupancy_heatmap("mesh4x4", "transpose", "bsor-dijkstra",
                                    1.0, config=FULL)
        topology = expected.topology
        loads = expected.channel_loads()
        used = sorted(loads, key=topology.channel_label)
        assert heatmap.channel_labels == [topology.channel_label(channel)
                                          for channel in used]
        assert heatmap.loads == [loads[channel] for channel in used]
        paper = occupancy_heatmap("mesh4x4", "transpose", "bsor-dijkstra",
                                  1.0, config=QUICK)
        assert (heatmap.channel_labels, heatmap.loads) != \
            (paper.channel_labels, paper.loads)


# ----------------------------------------------------------------------
# structural guard: the copies cannot grow back
# ----------------------------------------------------------------------
STRATEGY_SETS = {"full_strategy_set", "paper_strategies"}


def _outside_the_funnel(path: Path, tree: ast.Module):
    """(line, what) of every funnel-only construct in one source file."""
    relative = path.relative_to(SOURCE).as_posix()
    if relative.startswith("routing/") or \
            relative in ("faults.py", "planning.py"):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if path.name == "__init__.py":
                continue  # package facades re-export
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
            if node.attr == "compute_routes":
                yield node.lineno, ".compute_routes"
        else:
            continue
        if names & STRATEGY_SETS:
            yield node.lineno, sorted(names & STRATEGY_SETS)[0]


def test_routes_are_planned_only_through_the_funnel():
    offences = [
        f"{path.relative_to(SOURCE)}:{line}: {what}"
        for path in sorted(SOURCE.rglob("*.py"))
        for line, what in _outside_the_funnel(
            path, ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not offences, (
        "router construction policy / compute_routes outside routing/, "
        "faults.py and planning.py — plan through repro.planning "
        "(plan_routes / router_for / plan_on) instead:\n  "
        + "\n  ".join(offences)
    )


def test_guard_sees_what_it_guards():
    # the walk must flag the constructs in a file that is allowed to hold
    # them, or a silent pattern miss would make the guard vacuous
    def offences(relative, source):
        return {what for _, what in _outside_the_funnel(
            SOURCE / relative, ast.parse(source))}

    source = (SOURCE / "planning.py").read_text() + \
        (SOURCE / "faults.py").read_text()
    assert offences("study/execute.py", source) == \
        {".compute_routes", "full_strategy_set", "paper_strategies"}
    # the table harness is no exception any more (Tables 6.1 / 6.2 walk
    # planning.plan_per_cdg)
    assert offences("experiments/tables.py", source) == \
        offences("study/execute.py", source)
    assert offences("report.py",
                    "from x import paper_strategies as p") == \
        {"paper_strategies"}
    assert offences("planning.py", source) == set()


# ----------------------------------------------------------------------
# structural guard: one sweep funnel, one options -> config mapping
# ----------------------------------------------------------------------
BENCHMARKS = SOURCE.parent.parent / "benchmarks"


def _calls(tree: ast.Module, matches):
    """(line, callee name) of every call whose callee name *matches*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else \
                getattr(callee, "id", "")
            if matches(name):
                yield node.lineno, name


def _offences(paths, matches, allowed=lambda relative: False, root=SOURCE):
    return [f"{path.relative_to(root)}:{line}: {name}("
            for path in sorted(paths)
            if not allowed(path.relative_to(root).as_posix())
            for line, name in _calls(ast.parse(path.read_text()), matches)]


def test_sweep_specs_are_built_only_by_the_scenario_executor():
    offences = _offences(
        SOURCE.rglob("*.py"), lambda name: name == "SweepSpec",
        allowed=lambda relative: relative.startswith("runner/")
        or relative in ("study/execute.py", "compare/matrix.py"))
    assert not offences, (
        "a sweep description becomes SweepSpecs only in "
        "study.execute.run_scenario (and the saturation matrix); describe "
        "the sweep as a Scenario instead:\n  " + "\n  ".join(offences))


def test_the_cli_resolves_its_config_through_resolve_config():
    offences = _offences((SOURCE / "cli").rglob("*.py"),
                         lambda name: name == "from_profile")
    assert not offences, (
        "CLI options become an ExperimentConfig only in "
        "repro.study.execute.resolve_config:\n  " + "\n  ".join(offences))


def test_figure_benchmarks_name_routers_instead_of_building_them():
    benches = sorted(BENCHMARKS.glob("bench_figure_6_*.py"))
    assert len(benches) == 10
    offences = _offences(benches, lambda name: name.endswith("Routing"),
                         root=BENCHMARKS)
    assert not offences, (
        "figure benchmarks pass router *names* to run_figure (the option "
        "bag is repro.planning.router_for's):\n  " + "\n  ".join(offences))


def test_sweep_guards_see_what_they_guard():
    source = "runner.sweep_many({'k': SweepSpec(t, r, c, rates)})\n" \
             "config = ExperimentConfig.from_profile('quick')\n" \
             "BSORRouting(selector='dijkstra'); routing.XYRouting()\n"
    assert {name for _, name in _calls(ast.parse(source), bool)} == {
        "sweep_many", "SweepSpec", "from_profile", "BSORRouting",
        "XYRouting"}


# ----------------------------------------------------------------------
# structural guard: one process pool, one cell formatter, one set of writers
# ----------------------------------------------------------------------
def _names_process_pool(source: str):
    return "ProcessPoolExecutor" in source


def test_the_process_pool_lives_in_the_execution_backends_alone():
    offenders = [path.relative_to(SOURCE).as_posix()
                 for path in sorted(SOURCE.rglob("*.py"))
                 if _names_process_pool(path.read_text())]
    assert offenders == ["runner/backends.py"], (
        "cache-miss work fans out through repro.runner.backends (the "
        "execution-backend seam) only; a second pool bypasses --execution "
        f"and both cache tiers: {offenders}")


#: Names the second cell formatters / table writers had before they were
#: folded onto ResultSet (`to_markdown` / `to_text` / `to_html` / `to_json`).
SECOND_PRINTERS = {"format_value", "_format", "_html_table", "render_pivot",
                   "render_json"}


def _second_printers(path: Path, tree: ast.Module):
    """Function definitions that would be a second formatter or writer."""
    relative = path.relative_to(SOURCE).as_posix()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name in SECOND_PRINTERS or (
                node.name == "render_markdown"
                and not relative.startswith("study/")):
            yield f"{relative}:{node.lineno}: def {node.name}"


def test_result_set_owns_the_cell_formatter_and_every_table_writer():
    offences = [offence for path in sorted(SOURCE.rglob("*.py"))
                for offence in _second_printers(
                    path, ast.parse(path.read_text()))]
    assert not offences, (
        "cells are formatted and tables written by repro.study.resultset."
        "ResultSet only (render_markdown lives under study/):\n  "
        + "\n  ".join(offences))


def test_printer_guards_see_what_they_guard():
    assert _names_process_pool(
        "from concurrent.futures import ProcessPoolExecutor")
    assert not _names_process_pool((SOURCE / "runner/engine.py").read_text())
    source = "def _format(value): ...\n" \
             "class R:\n    def render_markdown(self): ...\n" \
             "def to_markdown(): ...\n"
    assert [offence.split(": ")[1] for offence in _second_printers(
        SOURCE / "report.py", ast.parse(source))] == \
        ["def _format", "def render_markdown"]
    assert list(_second_printers(SOURCE / "study/execute.py",
                                 ast.parse(source))) == \
        ["study/execute.py:1: def _format"]
