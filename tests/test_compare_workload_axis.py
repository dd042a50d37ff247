"""The comparison engine's --workload axis (ISSUE 3 acceptance criterion).

``python -m repro compare --topology mesh8x8 --workload decoder-pipeline
--routers dor,o1turn,bsor-dijkstra`` must produce a report whose BSOR route
set is derived from the application's flow graph, with the phase boundaries
its router splits the routes at.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as repro_main
from repro.compare.matrix import CompareMatrix, pattern_flow_set, parse_topology
from repro.experiments.config import ExperimentConfig
from repro.compare.saturation import SaturationCriteria
from repro.simulator.simulation import phase_boundaries_for
from repro.study import ResultSet
from repro.workloads import create_workload


def _quick_config() -> ExperimentConfig:
    return ExperimentConfig.quick()


def test_pattern_flow_set_resolves_registry_workloads():
    config = _quick_config()
    mesh = parse_topology("mesh8x8")
    flows = pattern_flow_set("decoder-pipeline", mesh, config)
    graph = create_workload("decoder-pipeline")
    assert len(flows) == graph.num_flows
    assert flows.total_demand() == pytest.approx(graph.total_demand())
    # aliases resolve too, and tori are accepted for registry workloads
    torus_flows = pattern_flow_set("decoder", parse_topology("torus4x4"),
                                   config)
    assert len(torus_flows) == graph.num_flows


def test_per_workload_default_mapping_is_honored():
    """map-reduce declares default_mapping='spread'; with no explicit
    --mapping the compare path must produce that placement, not 'block'."""
    from repro.workloads import workload_flow_set as registry_flow_set
    from repro.workloads import workload_spec

    assert workload_spec("map-reduce").default_mapping == "spread"
    config = _quick_config()
    assert config.mapping_strategy is None  # "use the workload's default"
    mesh = parse_topology("mesh8x8")
    via_compare = pattern_flow_set("map-reduce", mesh, config)
    via_registry_default = registry_flow_set("map-reduce", mesh,
                                             seed=config.simulation.seed)
    assert [flow.pair for flow in via_compare] == \
        [flow.pair for flow in via_registry_default]
    # an explicit strategy still overrides the workload default
    import dataclasses
    blocked = pattern_flow_set(
        "map-reduce", mesh,
        dataclasses.replace(config, mapping_strategy="block"))
    assert [flow.pair for flow in blocked] != \
        [flow.pair for flow in via_compare]


def _listed_spellings(listing: str) -> tuple:
    """(canonical names, aliases) a registry listing prints."""
    import re

    names, aliases = [], []
    for line in listing.splitlines():
        if line.startswith("  "):
            names.append(line.split()[0])
            found = re.search(r"\(aliases: ([^)]*)\)", line)
            if found:
                aliases.extend(found.group(1).split(", "))
    return names, aliases


def test_listed_vocabulary_is_what_canonical_pattern_accepts(
        capsys, monkeypatch):
    """Every name a listing or a --workload help prints resolves, every
    name that resolves is listed, and the two registries share no
    spelling (workloads are looked up first: a shared one would shadow
    the synthetic pattern silently)."""
    from repro.exceptions import ExperimentError
    from repro.experiments import WORKLOAD_NAMES
    from repro.planning import canonical_pattern
    from repro.traffic.synthetic import _PATTERNS
    from repro.workloads.registry import _WORKLOADS

    monkeypatch.setenv("COLUMNS", "1000")  # keep argparse from wrapping

    def stdout_of(*argv):
        assert repro_main(list(argv)) == 0
        return capsys.readouterr().out

    canonical = set(_WORKLOADS.names()) | set(_PATTERNS.names())
    assert set(WORKLOAD_NAMES) <= canonical
    assert "decoder-pipeline" in canonical and "bit-reverse" in canonical

    # list patterns + list workloads: each prints its registry, whole
    names, aliases = _listed_spellings(
        stdout_of("list", "workloads") + stdout_of("list", "patterns"))
    assert set(names) == canonical
    assert all(canonical_pattern(name) == name for name in names)
    assert {canonical_pattern(alias) for alias in aliases} <= canonical
    assert set(names) | set(aliases) <= \
        set(_WORKLOADS.alias_map) | set(_PATTERNS.alias_map)

    # --list-workloads and the --workload help name the same vocabulary
    for command in ("figure", "sweep", "profile"):
        listed, _ = _listed_spellings(stdout_of(command, "--list-workloads"))
        assert set(listed) == canonical, command
        helped = stdout_of(command, "--help").split("one of ")[1] \
            .split(" (default")[0].split(", ")
        assert set(helped) == canonical, command
        assert all(canonical_pattern(name) == name for name in helped)

    assert not set(_WORKLOADS.alias_map) & set(_PATTERNS.alias_map)

    # every accepted name instantiates; unknown names list both vocabularies
    mesh = parse_topology("mesh8x8")
    config = _quick_config()
    for name in canonical:
        assert len(pattern_flow_set(name, mesh, config)) > 0
    with pytest.raises(ExperimentError, match="decoder-pipeline.*transpose"):
        pattern_flow_set("no-such-workload", mesh, config)


def test_bsor_routes_are_derived_from_the_app_flow_graph():
    config = _quick_config()
    matrix = CompareMatrix(config=config)
    cells = matrix._build_cells(["mesh8x8"], ["decoder-pipeline"],
                                ["bsor-dijkstra"])
    assert len(cells) == 1
    plan = cells[0].plan
    graph = create_workload("decoder-pipeline")
    from repro.workloads import workload_spec
    strategy = config.mapping_strategy or \
        workload_spec("decoder-pipeline").default_mapping
    mapped = graph.mapped_onto(plan.topology, strategy=strategy,
                               seed=config.simulation.seed)
    # the route set BSOR computed covers exactly the application's flows,
    # with the application's bandwidth demands
    routed = {route.flow.name: route.flow for route in plan.route_set}
    assert set(routed) == {flow.name for flow in mapped}
    for flow in mapped:
        assert routed[flow.name].pair == flow.pair
        assert routed[flow.name].demand == pytest.approx(flow.demand)
    # ... and its per-channel loads are demand-weighted (application-aware),
    # so the MCL is expressible in the app's bandwidth units
    assert plan.route_set.max_channel_load() <= mapped.total_demand()
    assert plan.route_set.max_channel_load() >= \
        max(flow.demand for flow in mapped)


def test_a_cell_plan_carries_its_routers_phase_boundaries():
    config = _quick_config()
    matrix = CompareMatrix(config=config)
    [cell] = matrix._build_cells(["mesh8x8"], ["decoder-pipeline"],
                                 ["bsor-dijkstra"])
    plan = cell.plan
    boundaries = phase_boundaries_for(plan.router, plan.route_set)
    assert boundaries == plan.phase_boundaries


def test_cli_workload_axis_mesh4(capsys):
    exit_code = repro_main([
        "compare",
        "--topology", "mesh4x4", "--workload", "decoder-pipeline",
        "--routers", "dor,o1turn", "--profile", "quick", "--no-cache",
    ])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "mesh4x4 / decoder-pipeline" in out
    assert "XY" in out and "O1TURN" in out


def test_cli_workloads_combine_with_patterns(capsys):
    exit_code = repro_main([
        "compare",
        "--topology", "mesh4x4", "--patterns", "transpose",
        "--workloads", "fft-butterfly", "--routers", "dor",
        "--profile", "quick", "--no-cache", "--json",
    ])
    assert exit_code == 0
    report = json.loads(capsys.readouterr().out)
    patterns = {row["pattern"] for row in report["rows"]}
    assert patterns == {"transpose", "fft-butterfly"}


def test_cli_unknown_workload_fails_with_hint(capsys):
    exit_code = repro_main([
        "compare",
        "--topology", "mesh4x4", "--workloads", "decoder-pipelin",
        "--routers", "dor", "--profile", "quick", "--no-cache",
    ])
    assert exit_code == 1
    err = capsys.readouterr().err
    assert "decoder-pipeline" in err  # suggestion surfaced to the user


@pytest.mark.slow
def test_cli_acceptance_mesh8x8_decoder_pipeline(capsys):
    """The literal acceptance command (quick profile keeps cycles small)."""
    exit_code = repro_main([
        "compare",
        "--topology", "mesh8x8", "--workload", "decoder-pipeline",
        "--routers", "dor,o1turn,bsor-dijkstra",
        "--profile", "quick", "--no-cache", "--json",
    ])
    assert exit_code == 0
    rows = ResultSet(json.loads(capsys.readouterr().out)["rows"])
    assert rows.distinct("pattern") == ["decoder-pipeline"]
    assert set(rows.distinct("router")) == {"dor", "o1turn", "bsor-dijkstra"}
    assert all(value > 0 for value in rows.column("max_channel_load")
               + rows.column("saturation_throughput"))
