"""Tests for the experiment harness (configs, workloads, tables, figures)."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    FIGURES,
    PAPER_TABLE_6_1,
    PAPER_TABLE_6_3,
    WORKLOAD_NAMES,
    all_workloads,
    build_mesh,
    render_figure,
    run_figure,
    table_6_1,
    table_6_2,
    table_6_3,
    workload_flow_set,
)
from repro.experiments.report import (
    format_value,
    improvement_summary,
    render_table,
)


QUICK = ExperimentConfig.quick()


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.mesh_size == 8
        assert config.synthetic_demand == 25.0

    def test_quick_and_paper_scale(self):
        assert ExperimentConfig.quick().mesh_size == 4
        assert ExperimentConfig.paper_scale().simulation.measurement_cycles == 100_000
        assert ExperimentConfig.benchmark_scale().mesh_size == 8

    def test_with_vcs_and_variation(self):
        config = ExperimentConfig().with_vcs(4)
        assert config.num_vcs == 4
        assert config.simulation.num_vcs == 4
        varied = config.with_variation(0.25)
        assert varied.simulation.bandwidth_variation == 0.25

    def test_with_rates(self):
        assert ExperimentConfig().with_rates([1.0, 2.0]).offered_rates == (1.0, 2.0)

    @pytest.mark.parametrize("kwargs", [
        dict(mesh_size=1),
        dict(synthetic_demand=0),
        dict(offered_rates=()),
        dict(offered_rates=(0.0,)),
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ExperimentError):
            ExperimentConfig(**kwargs)


class TestWorkloads:
    def test_all_six_workloads_instantiate(self):
        workloads = all_workloads(QUICK)
        assert [name for name, _, _ in workloads] == list(WORKLOAD_NAMES)
        for _, mesh, flow_set in workloads:
            assert len(flow_set) > 0
            assert flow_set.max_node() < mesh.num_nodes

    def test_synthetic_demand_applied(self):
        mesh = build_mesh(QUICK)
        flows = workload_flow_set("transpose", mesh, QUICK)
        assert flows.max_demand() == QUICK.synthetic_demand

    def test_application_demands_preserved(self):
        mesh = build_mesh(QUICK)
        flows = workload_flow_set("h264", mesh, QUICK)
        assert flows.max_demand() == pytest.approx(120.4)

    def test_unknown_workload(self):
        with pytest.raises(ExperimentError):
            workload_flow_set("raytracer", build_mesh(QUICK), QUICK)


class TestReportRendering:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(3.0) == "3"
        assert format_value(3.14159, precision=2) == "3.14"
        assert format_value("abc") == "abc"

    def test_render_table_alignment_and_title(self):
        text = render_table(["a", "b"], [[1, 2.5], [10, None]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "b" in lines[2]
        assert "-" in lines[-1]

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_improvement_summary(self):
        text = improvement_summary({"BSOR": 2.0, "XY": 1.0}, "BSOR")
        assert "100%" in text
        assert improvement_summary({"XY": 1.0}, "BSOR") == "BSOR: no data"


class TestTables:
    def test_table_6_3_quick(self):
        table = table_6_3(QUICK, workloads=("transpose", "perf-modeling"))
        assert set(table.values) == {"transpose", "perf-modeling"}
        row = table.row("transpose")
        assert set(row) == {"XY", "YX", "ROMM", "Valiant", "BSOR-MILP",
                            "BSOR-Dijkstra"}
        # BSOR never loses to plain DOR on MCL
        assert row["BSOR-MILP"] <= row["XY"]
        assert table.minimum("transpose") == min(v for v in row.values())
        assert "Table 6.3" in table.render()
        assert "ours/paper" in table.render_against_paper()

    def test_table_6_1_quick(self):
        table = table_6_1(QUICK, workloads=("transpose",))
        row = table.row("transpose")
        assert set(row) == set(table.columns)
        assert any(value is not None for value in row.values())

    def test_table_6_2_quick(self):
        table = table_6_2(QUICK, workloads=("shuffle",))
        assert table.minimum("shuffle") is not None

    def test_paper_reference_tables_are_complete(self):
        for reference in (PAPER_TABLE_6_1, PAPER_TABLE_6_3):
            assert set(reference) == set(WORKLOAD_NAMES)

    def test_milp_table_not_worse_than_dijkstra_table(self):
        """Per the paper, MILP MCLs are <= Dijkstra MCLs CDG-by-CDG."""
        milp = table_6_1(QUICK, workloads=("transpose",)).row("transpose")
        dijkstra = table_6_2(QUICK, workloads=("transpose",)).row("transpose")
        for column, milp_value in milp.items():
            if milp_value is not None and dijkstra.get(column) is not None:
                assert milp_value <= dijkstra[column] + 1e-9


class TestFigures:
    def test_figure_workload_mapping(self):
        assert FIGURES["6-1"].workload == "transpose"
        assert FIGURES["6-6"].workload == "transmitter"
        # 6-7 .. 6-10 take the caller's workload
        assert [FIGURES[f"6-{n}"].workload for n in (7, 8, 9, 10)] == [None] * 4
        assert [FIGURES[f"6-{n}"].variation for n in (8, 9, 10)] == \
            [0.10, 0.25, 0.50]

    def test_figure_6_1_quick(self):
        results = run_figure("6-1", QUICK, routers=["dor", "yx"])
        assert results.distinct("display_name") == ["XY", "YX"]
        assert results.distinct("offered_rate") == list(QUICK.offered_rates)
        assert len(results) == 2 * len(QUICK.offered_rates)
        assert results.distinct("pattern") == ["transpose"]
        assert results.reduce("throughput", max, "display_name")["XY"] > 0
        # the route MCL rides on every row of its router
        assert results.reduce("max_channel_load", set, "display_name") == \
            {"XY": {75.0}, "YX": {75.0}}
        text = render_figure("6-1", results)
        assert text.startswith("Figure 6-1 (transpose) - throughput")
        assert "route MCLs: XY=75, YX=75" in text
        assert f"paper claim: {FIGURES['6-1'].claim}" in text

    def test_unknown_figure_is_rejected(self):
        with pytest.raises(ExperimentError, match="unknown figure '6-99'"):
            run_figure("6-99", QUICK)

    def test_fixed_workload_figure_rejects_a_workload(self):
        with pytest.raises(ExperimentError, match="plots 'transpose'"):
            run_figure("6-1", QUICK, workload="h264")

    def test_figure_6_7_quick(self):
        results = run_figure("6.7", QUICK, vcs=(1, 2),
                             routers=["dor", "bsor-dijkstra"])
        assert results.distinct("vcs") == [1, 2]
        saturation = results.reduce("throughput", max, "display_name", "vcs")
        assert set(saturation) == {("XY", 1), ("XY", 2),
                                   ("BSOR-Dijkstra", 1), ("BSOR-Dijkstra", 2)}
        text = render_figure("6-7", results)
        assert text.startswith("Figure 6-7 (transpose) - saturation "
                               "throughput (packets/cycle) by VC count")
        assert "1 VCs  2 VCs" in text

    def test_figure_6_9_quick(self):
        nominal = run_figure("6-1", QUICK, routers=["dor"])
        varied = run_figure("6-9", QUICK, routers=["dor"])
        assert varied.distinct("scenario") == ["Figure 6-9 (transpose)"]
        # routes come from the nominal demands, only injection varies
        assert varied.column("max_channel_load") == \
            nominal.column("max_channel_load")
        assert varied.column("throughput") != nominal.column("throughput")
        assert FIGURES["6-9"].claim in render_figure("6-9", varied)
        h264 = run_figure("6-9", QUICK, workload="h264", routers=["dor"])
        assert h264.distinct("pattern") == ["h264"]
