"""Tests for the comparison matrix, its reports and the CLI."""

import json

import pytest

from repro.compare import (
    CompareMatrix,
    SaturationCriteria,
    compare_routers,
    parse_topology,
    pattern_flow_set,
    render_json,
    render_markdown,
    result_to_dict,
)
from repro.cli import main as repro_main
from repro.exceptions import ExperimentError
from repro.experiments import ExperimentConfig
from repro.topology import Mesh2D, Ring, Torus2D

QUICK = ExperimentConfig.quick()
CRITERIA = SaturationCriteria(min_rate=0.25, max_rate=4.0, resolution=0.5)


@pytest.fixture(scope="module")
def quick_result():
    """One shared quick comparison: 4x4 mesh, two patterns, two routers."""
    return compare_routers(
        ["mesh4x4"], ["transpose", "bit-complement"], ["dor", "o1turn"],
        config=QUICK, criteria=CRITERIA,
    )


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

    def test_application_requires_mesh(self):
        with pytest.raises(ExperimentError, match="mesh"):
            pattern_flow_set("h264", Ring(16), QUICK)

    def test_unknown_pattern_lists_names(self):
        from repro.exceptions import ReproError

        # the error names both vocabularies: synthetic patterns and workloads
        with pytest.raises(ReproError, match="transpose"):
            pattern_flow_set("unknown-thing", Mesh2D(4), QUICK)
        with pytest.raises(ReproError, match="workload"):
            pattern_flow_set("unknown-thing", Mesh2D(4), QUICK)


class TestCompareMatrix:
    def test_cell_count_is_cross_product(self, quick_result):
        assert len(quick_result.cells) == 1 * 2 * 2

    def test_cell_lookup(self, quick_result):
        cell = quick_result.cell("mesh4x4", "transpose", "dor")
        assert cell.display_name == "XY"
        cell = quick_result.cell("mesh4x4", "bit_complement", "o1turn")
        assert cell.display_name == "O1TURN"

    def test_cell_lookup_folds_topology_spelling(self, quick_result):
        cell = quick_result.cell("  Mesh4X4 ", "transpose", "xy")
        assert cell.display_name == "XY"

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

    def test_cell_lookup_unknown_raises(self, quick_result):
        with pytest.raises(ExperimentError, match="no comparison cell"):
            quick_result.cell("mesh4x4", "shuffle", "dor")

    def test_groups_preserve_run_order(self, quick_result):
        keys = [key for key, _ in quick_result.groups()]
        assert keys == [("mesh4x4", "transpose"),
                        ("mesh4x4", "bit-complement")]

    def test_offline_metrics_populated(self, quick_result):
        for cell in quick_result.cells:
            assert cell.max_channel_load > 0
            assert cell.average_hops > 0

    def test_saturation_found_on_quick_mesh(self, quick_result):
        for cell in quick_result.cells:
            assert cell.saturation.invocations >= 1
            assert cell.saturation_throughput > 0

    def test_adaptive_needs_fewer_points_than_dense(self, quick_result):
        # even over this deliberately narrow test range the adaptive search
        # beats the dense grid; the >= 3x claim at realistic ranges is
        # asserted in test_compare_saturation and the benchmark
        dense_points = len(CRITERIA.dense_rates())
        for cell in quick_result.cells:
            assert cell.saturation.invocations < dense_points

    def test_latency_columns_populated(self, quick_result):
        for cell in quick_result.cells:
            assert cell.low_load_latency > 0
            assert cell.p99_latency >= cell.low_load_latency * 0.5

    def test_runner_report_accounts_points(self, quick_result):
        assert quick_result.report.points_total == \
            quick_result.total_invocations()

    def test_results_deterministic_across_runs(self, quick_result):
        again = compare_routers(
            ["mesh4x4"], ["transpose", "bit-complement"], ["dor", "o1turn"],
            config=QUICK, criteria=CRITERIA,
        )
        assert result_to_dict(again) == result_to_dict(quick_result)

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
        config = QUICK.with_runner(use_cache=True,
                                   cache_dir=str(tmp_path))
        cold = compare_routers(["mesh4x4"], ["transpose"], ["dor"],
                               config=config, criteria=CRITERIA)
        assert cold.report.points_simulated == cold.report.points_total
        warm = compare_routers(["mesh4x4"], ["transpose"], ["dor"],
                               config=config, criteria=CRITERIA)
        assert warm.report.points_simulated == 0
        assert warm.report.cache_hits == warm.report.points_total
        assert result_to_dict(warm) == result_to_dict(cold)


class TestReports:
    def test_markdown_has_table_per_group(self, quick_result):
        markdown = render_markdown(quick_result)
        assert "## mesh4x4 / transpose" in markdown
        assert "## mesh4x4 / bit-complement" in markdown
        assert "| XY |" in markdown
        assert "| O1TURN |" in markdown
        assert "saturation throughput" in markdown

    def test_json_round_trips(self, quick_result):
        payload = json.loads(render_json(quick_result))
        assert len(payload["cells"]) == 4
        cell = payload["cells"][0]
        assert cell["router"] == "dor"
        assert cell["saturation_throughput"] > 0
        assert payload["total_invocations"] == \
            sum(c["invocations"] for c in payload["cells"])

    def test_unsaturated_cell_rendered_as_lower_bound(self, quick_result):
        from dataclasses import replace

        cell = quick_result.cells[0]
        saturation = replace(cell.saturation, saturated_within_range=False)
        unsaturated = replace(cell, saturation=saturation)
        from repro.compare.report import _format_rate

        assert _format_rate(unsaturated.to_row()).startswith(">=")


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
        assert "## mesh4x4 / transpose" in out
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
        assert json.loads(out)["cells"][0]["router"] == "dor"

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
        assert "available patterns" in err
