"""Tests for the experiment harness (configs, workloads, tables, figures)."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    FIGURES,
    PAPER_TABLE_6_1,
    PAPER_TABLE_6_3,
    WORKLOAD_NAMES,
    render_figure,
    render_table,
    run_figure,
    run_table,
)
from repro.planning import parse_topology, pattern_flow_set
from repro.study import ResultSet


QUICK = ExperimentConfig.quick()
QUICK_MESH = f"mesh{QUICK.mesh_size}x{QUICK.mesh_size}"


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
        mesh = parse_topology(QUICK_MESH)
        assert len(WORKLOAD_NAMES) == 6
        for name in WORKLOAD_NAMES:
            flow_set = pattern_flow_set(name, mesh, QUICK)
            assert len(flow_set) > 0
            assert flow_set.max_node() < mesh.num_nodes

    def test_synthetic_demand_applied(self):
        mesh = parse_topology(QUICK_MESH)
        flows = pattern_flow_set("transpose", mesh, QUICK)
        assert flows.max_demand() == QUICK.synthetic_demand

    def test_application_demands_preserved(self):
        mesh = parse_topology(QUICK_MESH)
        flows = pattern_flow_set("h264", mesh, QUICK)
        assert flows.max_demand() == pytest.approx(120.4)

    def test_unknown_workload(self):
        with pytest.raises(ExperimentError):
            pattern_flow_set("raytracer", parse_topology(QUICK_MESH), QUICK)


class TestTextRendering:
    """The aligned-text writer the figure and table harnesses print with."""

    def test_cells(self):
        [_, _, row] = ResultSet([
            {"a": None, "b": 3.0, "c": 3.14159, "d": "abc", "e": True},
        ]).to_text().splitlines()
        assert row.split() == ["-", "3", "3.14", "abc", "yes"]

    def test_alignment_and_title(self):
        text = ResultSet([{"a": 1, "b": 2.5}, {"a": 10, "b": None}]) \
            .to_text(title="T")
        assert text.splitlines() == [
            "T", "=", "a   b", "--  ----", "1   2.50", "10  -"]

    def test_columns_choose_and_order(self):
        text = ResultSet([{"a": 1, "b": 2}]).to_text(columns=["b", "a"])
        assert text.splitlines()[0].split() == ["b", "a"]


class TestTables:
    def test_table_6_3_quick(self):
        rows = run_table("6-3", QUICK,
                         workloads=("transpose", "perf-modeling"))
        assert rows.distinct("pattern") == ["transpose", "perf-modeling"]
        assert rows.distinct("table") == ["6-3"]
        transpose = rows.filter(pattern="transpose")
        assert transpose.distinct("display_name") == [
            "XY", "YX", "ROMM", "Valiant", "BSOR-MILP", "BSOR-Dijkstra"]
        mcl = transpose.reduce("max_channel_load", min, "display_name")
        # BSOR never loses to plain DOR on MCL
        assert mcl["BSOR-MILP"] <= mcl["XY"]
        # only the MILP router has a solve to prove
        assert rows.reduce("optimal", set, "router") == {
            "dor": {None}, "yx": {None}, "romm": {None}, "valiant": {None},
            "bsor-milp": {True}, "bsor-dijkstra": {None}}
        text = render_table("6-3", rows)
        assert text.startswith("Table 6.3")
        assert "XY (ours/paper)" in text and "*" not in text

    def test_table_6_1_quick(self):
        rows = run_table("6-1", QUICK, workloads=("transpose",))
        assert rows.distinct("cdg") == [
            "north-last", "west-first", "negative-first", "ad-hoc-1",
            "ad-hoc-2"]
        assert rows.distinct("router") == ["bsor-milp"]
        assert all(value is not None
                   for value in rows.column("max_channel_load"))
        assert rows.column("optimal") == [True] * 5

    def test_table_6_2_quick(self):
        rows = run_table("6.2", QUICK, workloads=("shuffle",))
        assert min(rows.column("max_channel_load")) > 0
        assert rows.column("optimal") == [None] * 5

    def test_unknown_table_is_rejected(self):
        with pytest.raises(ExperimentError, match="unknown table '6-9'"):
            run_table("6-9", QUICK)

    def test_paper_reference_tables_are_complete(self):
        for reference in (PAPER_TABLE_6_1, PAPER_TABLE_6_3):
            assert set(reference) == set(WORKLOAD_NAMES)

    def test_milp_table_not_worse_than_dijkstra_table(self):
        """Per the paper, MILP MCLs are <= Dijkstra MCLs CDG-by-CDG."""
        milp, dijkstra = (
            run_table(number, QUICK, workloads=("transpose",))
            .reduce("max_channel_load", min, "cdg")
            for number in ("6-1", "6-2"))
        assert set(milp) == set(dijkstra)
        for cdg, milp_value in milp.items():
            assert milp_value <= dijkstra[cdg] + 1e-9

    def test_a_time_limited_cell_is_marked_not_passed_off_as_a_minimum(
            self, monkeypatch):
        """Regression: a Table 6.1 cell whose MILP stopped at
        ``milp_time_limit`` printed like a proven minimum."""
        import repro.routing.bsor.milp as milp_module

        real = milp_module.milp
        calls = []

        def limit_hits_the_second_solve(**kwargs):
            result = real(**kwargs)
            calls.append(result)
            if len(calls) == 2:
                # HiGHS at its time limit with an incumbent in hand
                result.status = 1
                result.message = "Time limit reached. (HiGHS Status 13)"
            return result

        monkeypatch.setattr(milp_module, "milp", limit_hits_the_second_solve)
        rows = run_table("6-1", QUICK, workloads=("transpose",))
        assert rows.column("optimal") == [True, False, True, True, True]
        [_, _, _, _, cells, legend] = render_table("6-1", rows).splitlines()
        assert cells.split() == ["transpose", "75/175", "75*/175", "75/75",
                                 "50/175", "50/75"]
        assert legend.startswith("* ") and "milp_time_limit" in legend

    def test_a_cell_the_solver_never_filled_is_empty(self):
        """Whatever a tiny ``milp_time_limit`` does on this host — nothing
        found, an unproven incumbent, or a proven minimum — the cell says
        which."""
        import dataclasses

        rows = run_table(
            "6-1", dataclasses.replace(QUICK, milp_time_limit=1e-9),
            workloads=("transpose",))
        text = render_table("6-1", rows)
        for row, cell in zip(rows, text.splitlines()[4].split()[1:]):
            ours = cell.split("/")[0]
            if row["max_channel_load"] is None:
                assert (row["optimal"], ours) == (False, "-")
            else:
                assert ours.endswith("*") == (row["optimal"] is False)


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
