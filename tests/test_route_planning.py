"""The route-planning funnel (:mod:`repro.planning`).

Four things are pinned here:

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
from repro.routing.base import RoutingAlgorithm
from repro.routing.deadlock import DeadlockReport
from repro.routing.registry import available_routers
from repro.runner.fingerprint import route_set_fingerprint, simulation_cache_key

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


def _planned_key(cell) -> str:
    topology_name, pattern, router, faults, config, _ = cell
    topology = parse_topology(topology_name)
    flow_set = pattern_flow_set(pattern, topology, config)
    try:
        plan = plan_routes(router, topology, flow_set, config, faults)
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

    def test_full_cdg_set_changes_the_plan(self):
        # the two bsor-dijkstra cells must differ, or the strategy-set
        # cells above (and the bugfix tests below) would pin nothing
        recorded = json.loads(GOLDEN.read_text())
        assert recorded["mesh4x4|transpose|bsor-dijkstra|none"] != \
            recorded["mesh4x4|transpose|bsor-dijkstra|none|full-cdg-set"]


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
                                    1.0, num_cycles=32, buckets=4,
                                    config=FULL)
        topology = expected.topology
        used = {channel for route in expected.routes
                for channel in route.channels}
        assert heatmap.channel_labels == [
            topology.channel_label(channel)
            for channel in sorted(used, key=topology.channel_label)]
        paper = occupancy_heatmap("mesh4x4", "transpose", "bsor-dijkstra",
                                  1.0, num_cycles=32, buckets=4,
                                  config=QUICK)
        assert (heatmap.channel_labels, heatmap.matrix) != \
            (paper.channel_labels, paper.matrix)


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
    allowed_lines = range(0)
    if relative == "experiments/tables.py":
        # Tables 6.1 / 6.2 tabulate the per-CDG exploration itself
        [row] = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_exploration_row"]
        allowed_lines = range(row.lineno, row.end_lineno + 1)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # package __init__ facades re-export; tables.py imports for
            # the exploration row
            if path.name == "__init__.py" or \
                    relative == "experiments/tables.py":
                continue
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
            if node.attr == "compute_routes" and \
                    node.lineno not in allowed_lines:
                yield node.lineno, ".compute_routes"
        else:
            continue
        if names & STRATEGY_SETS and node.lineno not in allowed_lines:
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
        {".compute_routes", "full_strategy_set"}
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
