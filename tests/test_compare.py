"""Tests for the comparison matrix, its rows and the CLI."""

import dataclasses
import json

import pytest

from repro.compare import (
    CompareMatrix,
    SaturationCriteria,
    parse_topology,
    pattern_flow_set,
)
from repro.cli import main as repro_main
from repro.exceptions import ExperimentError, TrafficError
from repro.experiments import ExperimentConfig
from repro.runner import ExperimentRunner
from repro.topology import Mesh2D, Ring, Torus2D

QUICK = ExperimentConfig.quick()
CRITERIA = SaturationCriteria(min_rate=0.25, max_rate=4.0, resolution=0.5)


def compare(patterns, routers, config=QUICK, runner=None):
    """``(rows, report)`` of one quick 4x4-mesh comparison."""
    return CompareMatrix(config=config, criteria=CRITERIA,
                         runner=runner).run(["mesh4x4"], patterns, routers)


@pytest.fixture(scope="module")
def quick_rows():
    """One shared quick comparison: 4x4 mesh, two patterns, two routers."""
    rows, _ = compare(["transpose", "bit-complement"], ["dor", "o1turn"])
    return rows


class TestParseTopology:
    def test_mesh_square(self):
        topology = parse_topology("mesh8x8")
        assert isinstance(topology, Mesh2D)
        assert topology.num_nodes == 64

    def test_mesh_shorthand(self):
        assert parse_topology("mesh4").num_nodes == 16

    def test_mesh_rectangular(self):
        assert parse_topology("mesh4x2").num_nodes == 8

    def test_torus(self):
        assert isinstance(parse_topology("torus4x4"), Torus2D)

    def test_ring(self):
        topology = parse_topology("ring16")
        assert isinstance(topology, Ring)
        assert topology.num_nodes == 16

    def test_case_and_whitespace_folded(self):
        assert parse_topology(" Mesh4X4 ").num_nodes == 16

    @pytest.mark.parametrize("spec", ["hypercube4", "mesh", "ring4x4", "8x8"])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ExperimentError, match="topolog"):
            parse_topology(spec)


class TestPatternFlowSet:
    def test_synthetic_with_alias(self):
        flows = pattern_flow_set("bit_complement", Mesh2D(4), QUICK)
        assert len(flows) == 16
        assert all(flow.demand == QUICK.synthetic_demand for flow in flows)

    def test_application_on_mesh(self):
        flows = pattern_flow_set("h264", Mesh2D(4), QUICK)
        assert len(flows) > 0

    def test_application_block_mapping_requires_a_grid(self):
        # the mapping layer's own error: the placement is the problem, and
        # the message says which placements a ring does accept
        with pytest.raises(TrafficError, match="needs a 2-D grid topology "
                                               ".*mesh or torus.*row-major"):
            pattern_flow_set("h264", Ring(16), QUICK)
        placed = pattern_flow_set(
            "h264", Ring(16),
            dataclasses.replace(QUICK, mapping_strategy="row-major"))
        assert len(placed) == len(pattern_flow_set("h264", Mesh2D(4), QUICK))

    def test_unknown_pattern_lists_names(self):
        from repro.exceptions import ReproError

        # the error names both vocabularies: synthetic patterns and workloads
        with pytest.raises(ReproError, match="transpose"):
            pattern_flow_set("unknown-thing", Mesh2D(4), QUICK)
        with pytest.raises(ReproError, match="workload"):
            pattern_flow_set("unknown-thing", Mesh2D(4), QUICK)


    @pytest.mark.parametrize("topology", ["mesh3x3", "ring6"])
    def test_known_pattern_on_an_unfit_topology_is_not_unknown(
            self, topology):
        # the pattern is known, the node count is the problem: the builder's
        # own error surfaces, not "unknown pattern or workload 'transpose'"
        with pytest.raises(TrafficError) as raised:
            pattern_flow_set("transpose", parse_topology(topology), QUICK)
        message = str(raised.value)
        assert "power-of-two node count" in message
        assert "unknown" not in message and "did you mean" not in message

    @pytest.mark.parametrize("typo, meant", [("trnspose", "transpose"),
                                             ("h265", "h264")])
    def test_unknown_name_suggests_from_either_vocabulary(self, typo, meant):
        with pytest.raises(ExperimentError) as raised:
            pattern_flow_set(typo, Mesh2D(4), QUICK)
        message = str(raised.value)
        assert f"unknown pattern or workload {typo!r}" in message
        assert f"did you mean {meant!r}" in message
        assert "registered workloads" in message
        assert "registered patterns" in message

    def test_unfit_topology_end_to_end(self, capsys):
        code = repro_main([
            "compare", "--profile", "quick", "--topology", "mesh3x3",
            "--patterns", "transpose", "--routers", "dor", "--no-cache",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "power-of-two node count, got 9" in err
        assert "unknown" not in err and "did you mean" not in err


class TestCompareMatrix:
    def test_row_count_is_cross_product(self, quick_rows):
        assert len(quick_rows) == 1 * 2 * 2

    def test_rows_are_tagged_canonically(self, quick_rows):
        [row] = quick_rows.filter(topology="mesh4x4", pattern="transpose",
                                  router="dor")
        assert row["display_name"] == "XY"
        [row] = quick_rows.filter(pattern="bit-complement", router="o1turn")
        assert row["display_name"] == "O1TURN"
        assert quick_rows.distinct("faults") == ["none"]

    def test_names_are_folded_into_the_tags(self):
        rows, _ = CompareMatrix(config=QUICK, criteria=CRITERIA).run(
            ["  Mesh4X4 "], ["bit_complement"], ["xy"])
        [row] = rows
        assert (row["topology"], row["pattern"], row["router"]) == \
            ("mesh4x4", "bit-complement", "dor")

    def test_full_cdg_set_forwarded_to_bsor(self):
        from dataclasses import replace

        from repro.routing.bsor.framework import (
            full_strategy_set,
            paper_strategies,
        )

        full = replace(QUICK, explore_full_cdg_set=True)
        cells = CompareMatrix(config=full, criteria=CRITERIA)._build_cells(
            ["mesh4x4"], ["transpose"], ["bsor-dijkstra"])
        assert len(cells[0].plan.router.strategies) == \
            len(full_strategy_set(Mesh2D(4)))

        default = CompareMatrix(config=QUICK, criteria=CRITERIA)._build_cells(
            ["mesh4x4"], ["transpose"], ["bsor-dijkstra"])
        assert len(default[0].plan.router.strategies) == \
            len(paper_strategies())

    def test_rows_preserve_run_order(self, quick_rows):
        keys = [key for key, _ in quick_rows.group("topology", "pattern")]
        assert keys == [("mesh4x4", "transpose"),
                        ("mesh4x4", "bit-complement")]

    def test_offline_metrics_populated(self, quick_rows):
        assert all(value > 0 for value in
                   quick_rows.column("max_channel_load")
                   + quick_rows.column("average_hops"))

    def test_saturation_found_on_quick_mesh(self, quick_rows):
        assert all(points >= 1 for points in quick_rows.column("sim_points"))
        assert all(throughput > 0 for throughput in
                   quick_rows.column("saturation_throughput"))
        # what the search saw rides on the library rows
        for row in quick_rows:
            assert len(row["observations"]) == row["sim_points"]
            assert list(row["observations"][0]) == [
                "offered_rate", "throughput", "average_latency",
                "delivery_ratio", "saturated"]
            assert row["last_stable_rate"] <= row["saturation_rate"]
            assert row["max_throughput"] >= row["saturation_throughput"]

    def test_adaptive_needs_fewer_points_than_dense(self, quick_rows):
        # even over this deliberately narrow test range the adaptive search
        # beats the dense grid; the >= 3x claim at realistic ranges is
        # asserted in test_compare_saturation and the benchmark
        dense_points = len(CRITERIA.dense_rates())
        assert max(quick_rows.column("sim_points")) < dense_points

    def test_latency_columns_populated(self, quick_rows):
        for row in quick_rows:
            assert row["low_load_latency"] > 0
            assert row["p99_latency"] >= row["low_load_latency"] * 0.5

    def test_runner_report_accounts_points(self):
        rows, report = compare(["transpose"], ["dor", "o1turn"])
        assert report.points_total == sum(rows.column("sim_points"))

    def test_results_deterministic_across_runs(self, quick_rows):
        again, _ = compare(["transpose", "bit-complement"],
                           ["dor", "o1turn"])
        assert again == quick_rows

    def test_empty_inputs_rejected(self):
        matrix = CompareMatrix(config=QUICK, criteria=CRITERIA)
        with pytest.raises(ExperimentError, match="at least one"):
            matrix.run([], ["transpose"], ["dor"])

    def test_unknown_router_fails_with_listing(self):
        from repro.exceptions import RoutingError

        matrix = CompareMatrix(config=QUICK, criteria=CRITERIA)
        with pytest.raises(RoutingError, match="bsor-dijkstra"):
            matrix.run(["mesh4x4"], ["transpose"], ["not-a-router"])

    def test_cached_rerun_skips_simulation(self, tmp_path):
        def cached():
            return ExperimentRunner(cache=str(tmp_path))

        cold, cold_report = compare(["transpose"], ["dor"], runner=cached())
        assert cold_report.points_simulated == cold_report.points_total
        warm, warm_report = compare(["transpose"], ["dor"], runner=cached())
        assert warm_report.points_simulated == 0
        assert warm_report.cache_hits == warm_report.points_total
        assert warm == cold


class TestCLI:
    def test_quick_run_prints_markdown(self, capsys):
        code = repro_main([
            "compare",
            "--topology", "mesh4x4", "--patterns", "transpose",
            "--routers", "dor,yx", "--profile", "quick",
            "--workers", "1", "--no-cache",
            "--max-rate", "4", "--resolution", "0.5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "# Study: compare" in out
        assert "## scenario-1: mesh4x4 / transpose (saturate)" in out
        assert "| XY |" in out
        assert "| YX |" in out

    def test_json_output(self, capsys):
        code = repro_main([
            "compare",
            "--topology", "mesh4x4", "--patterns", "transpose",
            "--routers", "dor", "--profile", "quick",
            "--workers", "1", "--no-cache",
            "--max-rate", "4", "--resolution", "0.5", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        document = json.loads(out)
        assert document["rows"][0]["router"] == "dor"
        assert document["study"]["scenarios"][0]["mode"] == "saturate"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        code = repro_main([
            "compare",
            "--topology", "mesh4x4", "--patterns", "transpose",
            "--routers", "dor", "--profile", "quick",
            "--workers", "1", "--no-cache",
            "--max-rate", "4", "--resolution", "0.5",
            "--output", str(target),
        ])
        assert code == 0
        assert "| XY |" in target.read_text()
        assert str(target) in capsys.readouterr().out

    def test_list_routers(self, capsys):
        assert repro_main(["compare", "--list-routers"]) == 0
        out = capsys.readouterr().out
        assert "bsor-dijkstra" in out
        assert "o1turn" in out

    def test_unknown_router_fails_cleanly(self, capsys):
        code = repro_main([
            "compare",
            "--topology", "mesh4x4", "--patterns", "transpose",
            "--routers", "nope", "--profile", "quick", "--no-cache",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_pattern_fails_cleanly(self, capsys):
        code = repro_main([
            "compare",
            "--topology", "mesh4x4", "--patterns", "nope",
            "--routers", "dor", "--profile", "quick", "--no-cache",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "registered patterns" in err
