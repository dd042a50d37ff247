"""Tests for the single-file HTML run report (:mod:`repro.report`).

Covers the two accepted result-file shapes (study document and bare row
array), the channel-load heatmap (each column the exact static load of the
plan behind its rows: the study's config, seed and fault set, the runner's
plan cache, its peak the rows' maximum channel load), the graceful
degradation paths (missing router tags, unknown routers, a hostile embedded
study and a column planned under other options become notes, not
failures), and the rendered page structure: pivots, heatmap cells with the
sequential ramp, legend, table view and tooltips.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.planning
import repro.report
from repro.cli import main
from repro.exceptions import ReproError
from repro.experiments.config import ExperimentConfig
from repro.faults import FaultSet
from repro.report import (
    SEQUENTIAL_RAMP,
    build_report,
    heatmaps_for,
    load_result_rows,
    occupancy_heatmap,
    render_report,
)
from repro.planning import parse_topology, pattern_flow_set, plan_routes
from repro.routing.registry import available_routers
from repro.study import Study
from repro.study.execute import resolve_config
from repro.study.resultset import ResultSet

DEGRADED_STUDY = (Path(__file__).parent.parent / "examples" / "studies"
                  / "degraded.yaml")

#: The maximum channel load of each router's transpose plan on a 4x4 mesh.
MCL = {"dor": 75.0, "bsor-dijkstra": 50.0}


def _sweep_rows():
    rows = []
    for router in ("dor", "bsor-dijkstra"):
        for rate in (1.0, 2.0):
            rows.append({
                "mode": "sweep", "topology": "mesh4",
                "pattern": "transpose", "router": router,
                "offered_rate": rate, "throughput": rate * 0.9,
                "average_latency": 10.0 + rate,
                "max_channel_load": MCL[router],
            })
    return rows


def _write(tmp_path, document, name="rows.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def _recorded_plans(monkeypatch):
    """Every plan the report asks the planning funnel for, in order."""
    plans = []
    plan_routes = repro.planning.plan_routes

    def recording(*args, **kwargs):
        plans.append(plan_routes(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(repro.planning, "plan_routes", recording)
    return plans


class TestLoadResultRows:
    def test_bare_array_shape(self, tmp_path):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(_sweep_rows()))
        results, metadata = load_result_rows(str(path))
        assert len(results) == 4
        assert metadata == {}

    def test_study_document_shape(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(
            {"study": {"name": "demo"}, "rows": _sweep_rows()}))
        results, metadata = load_result_rows(str(path))
        assert len(results) == 4
        assert metadata["study"]["name"] == "demo"

    def test_missing_file_is_repro_error(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_result_rows(str(tmp_path / "nope.json"))

    def test_invalid_json_is_repro_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_result_rows(str(path))

    def test_wrong_shape_is_repro_error(self, tmp_path):
        path = tmp_path / "scalar.json"
        path.write_text("42")
        with pytest.raises(ReproError, match="neither"):
            load_result_rows(str(path))


class TestOccupancyHeatmap:
    def test_the_column_is_the_plans_static_channel_load(self):
        heatmap = occupancy_heatmap("mesh4", "transpose", "dor", 2.0)
        assert len(heatmap.loads) == len(heatmap.channel_labels)
        assert heatmap.channel_labels == sorted(heatmap.channel_labels)
        assert heatmap.max_value() == MCL["dor"]
        assert (heatmap.router, heatmap.faults) == ("dor", "none")
        # every transpose flow of 25 crosses at least one channel
        assert min(heatmap.loads) > 0
        assert sum(heatmap.loads) % 25.0 == 0

    def test_the_offered_rate_does_not_change_the_load(self):
        assert occupancy_heatmap("mesh4", "transpose", "dor", 0.5) == \
            occupancy_heatmap("mesh4", "transpose", "dor", 6.0) == \
            occupancy_heatmap("mesh4", "transpose", "dor")

    def test_faults_degrade_the_column(self):
        intact = occupancy_heatmap("mesh4", "transpose", "bsor-dijkstra")
        degraded = occupancy_heatmap("mesh4", "transpose", "bsor-dijkstra",
                                     faults="link:5-6,link:9-10")
        assert degraded.faults == "link:5-6,link:9-10"
        assert (intact.max_value(), degraded.max_value()) == (50.0, 100.0)
        # both directions of a dead link carry nothing
        assert not {"FG", "GF", "JK", "KJ"} & set(degraded.channel_labels)

    def test_unknown_router_raises_repro_error(self):
        with pytest.raises(ReproError):
            occupancy_heatmap("mesh4", "transpose", "no-such-router", 2.0)

    @pytest.mark.parametrize("router", available_routers())
    def test_every_router_column_is_its_route_sets_load(self, router):
        heatmap = occupancy_heatmap("mesh4", "transpose", router)
        topology = parse_topology("mesh4")
        route_set = plan_routes(
            router, topology,
            pattern_flow_set("transpose", topology, ExperimentConfig()),
            ExperimentConfig()).route_set
        used = {channel for route in route_set.routes
                for channel in route.channels}
        assert sorted(heatmap.channel_labels) == sorted(
            topology.channel_label(channel) for channel in used)
        assert heatmap.max_value() == route_set.max_channel_load()
        # each flow's demand lands once on every channel of its route
        assert sum(heatmap.loads) == pytest.approx(sum(
            route.flow.demand * route.hop_count for route in route_set))


class TestHeatmapsFor:
    def test_one_column_per_router_first_group(self):
        heatmaps, notes = heatmaps_for(ResultSet(_sweep_rows()),
                                       cache=False)
        assert [heatmap.label for heatmap in heatmaps] == [
            "dor / none", "bsor-dijkstra / none"]
        # each column's peak is its rows' maximum channel load
        assert [heatmap.max_value() for heatmap in heatmaps] == \
            [MCL["dor"], MCL["bsor-dijkstra"]]
        assert notes == []

    def test_the_cap_names_what_it_drops(self, monkeypatch):
        monkeypatch.setattr(repro.report, "MAX_HEATMAP_COLUMNS", 1)
        heatmaps, notes = heatmaps_for(ResultSet(_sweep_rows()),
                                       cache=False)
        assert [heatmap.router for heatmap in heatmaps] == ["dor"]
        assert notes == ["1 more column(s) not shown: bsor-dijkstra / none"]

    def test_a_column_planned_under_other_options_is_not_drawn(self):
        rows = _sweep_rows()
        for row in rows:
            if row["router"] == "dor":
                row["max_channel_load"] = 100.0
        heatmaps, notes = heatmaps_for(ResultSet(rows), cache=False)
        assert [heatmap.router for heatmap in heatmaps] == ["bsor-dijkstra"]
        [note] = notes
        assert note.startswith("dor / none not drawn")
        assert "75" in note and "100" in note

    def test_every_row_of_a_column_is_checked(self):
        rows = _sweep_rows()
        rows[1]["max_channel_load"] = 100.0  # dor's second rate point
        heatmaps, notes = heatmaps_for(ResultSet(rows), cache=False)
        assert [heatmap.router for heatmap in heatmaps] == ["bsor-dijkstra"]
        assert notes[0].startswith("dor / none not drawn")

    def test_an_equal_peak_with_other_hops_is_not_drawn(self):
        # Valiant's intermediates follow the seed: both seeds peak at 100,
        # but seed 0 averages 17/3 hops and seed 1 16/3
        rows = [{"topology": "mesh4", "pattern": "transpose",
                 "router": "valiant", "max_channel_load": 100.0,
                 "average_hops": 16 / 3}]
        heatmaps, notes = heatmaps_for(ResultSet(rows), cache=False)
        assert heatmaps == []
        [note] = notes
        assert "average hop count is 5.66667" in note
        assert "record 5.33333" in note
        study = {"name": "seeded", "scenarios": [{
            "name": "valiant-1", "topologies": ["mesh4"],
            "patterns": ["transpose"], "routers": ["valiant"], "seed": 1}]}
        rows[0]["scenario"] = "valiant-1"
        heatmaps, notes = heatmaps_for(ResultSet(rows), study, cache=False)
        assert notes == [] and heatmaps[0].average_hops == 16 / 3

    def test_a_full_cdg_set_plan_needs_its_profile(self):
        # the paper profile explores all fifteen CDGs: bsor-dijkstra's
        # transpose plan peaks at 25 there and at 50 on the paper's five
        config, _ = resolve_config(Study("paper"), profile="paper",
                                   cache=False)
        topology = parse_topology("mesh4")
        route_set = plan_routes(
            "bsor-dijkstra", topology,
            pattern_flow_set("transpose", topology, config),
            config).route_set
        rows = [{"topology": "mesh4", "pattern": "transpose",
                 "router": "bsor-dijkstra",
                 "max_channel_load": route_set.max_channel_load(),
                 "average_hops": route_set.average_hop_count()}]
        assert rows[0]["max_channel_load"] == 25.0
        heatmaps, notes = heatmaps_for(ResultSet(rows), cache=False)
        assert heatmaps == [] and "is 50 and its rows record 25" in notes[0]
        heatmaps, notes = heatmaps_for(ResultSet(rows), profile="paper",
                                       cache=False)
        assert notes == []
        assert heatmaps[0].loads == [
            route_set.channel_loads()[channel] for channel in sorted(
                route_set.channel_loads(), key=topology.channel_label)]

    def test_each_scenario_gets_its_own_column(self):
        # ROMM peaks at 50 under seed 0 and at 75 under seed 2
        study = {"name": "two-seeds", "scenarios": [
            {"name": name, "topologies": ["mesh4"],
             "patterns": ["transpose"], "routers": ["romm"], "seed": seed}
            for name, seed in (("seed-0", 0), ("seed-2", 2))]}
        rows = [{"scenario": name, "topology": "mesh4",
                 "pattern": "transpose", "router": "romm",
                 "max_channel_load": peak}
                for name, peak in (("seed-0", 50.0), ("seed-2", 75.0))]
        heatmaps, notes = heatmaps_for(ResultSet(rows), study, cache=False)
        assert notes == []
        assert [(heatmap.label, heatmap.max_value()) for heatmap in
                heatmaps] == [("seed-0: romm / none", 50.0),
                              ("seed-2: romm / none", 75.0)]

    def test_the_scenario_seed_reaches_the_plan(self):
        # ROMM's intermediates follow the seed: 50 at seed 0, 75 at seed 7
        study = {"name": "seeded", "scenarios": [{
            "name": "romm-7", "topologies": ["mesh4"],
            "patterns": ["transpose"], "routers": ["romm"], "seed": 7}]}
        rows = [{"scenario": "romm-7", "topology": "mesh4",
                 "pattern": "transpose", "router": "romm",
                 "max_channel_load": 75.0}]
        heatmaps, notes = heatmaps_for(ResultSet(rows), study, cache=False)
        assert notes == [] and heatmaps[0].max_value() == 75.0
        heatmaps, notes = heatmaps_for(ResultSet(rows), cache=False)
        assert heatmaps == [] and "not drawn" in notes[0]

    def test_rows_without_router_tag_degrade_to_note(self):
        rows = [{"topology": "mesh4", "pattern": "transpose",
                 "offered_rate": 1.0, "throughput": 0.9}]
        heatmaps, notes = heatmaps_for(ResultSet(rows), cache=False)
        assert heatmaps == []
        assert any("router tag" in note for note in notes)

    def test_unknown_router_degrades_to_note(self):
        rows = [{"topology": "mesh4", "pattern": "transpose",
                 "router": "warp-drive", "offered_rate": 1.0}]
        heatmaps, notes = heatmaps_for(ResultSet(rows), cache=False)
        assert heatmaps == []
        assert any("warp-drive" in note for note in notes)

    def test_empty_rows(self):
        heatmaps, notes = heatmaps_for(ResultSet([]))
        assert heatmaps == []
        assert notes


class TestTheReportDrawsThePlansBehindTheRows:
    """A degraded study's columns are its degraded plans, planned once."""

    @pytest.fixture(scope="class")
    def document(self, tmp_path_factory):
        study = (Study("degraded")
                 .grid(topologies=["mesh4x4"], patterns=["transpose"],
                       routers=["dor", "bsor-dijkstra"],
                       faults=["none", "link:5-6,link:9-10"])
                 .rates(0.5))
        result = study.run(profile="quick", workers=1, cache=False)
        return _write(tmp_path_factory.mktemp("degraded"),
                      json.loads(result.to_json()), "degraded.json")

    def test_each_column_peaks_at_its_rows_mcl(self, document):
        results, metadata = load_result_rows(document)
        heatmaps, notes = heatmaps_for(results, metadata["study"],
                                       cache=False)
        assert notes == []
        peaks = {heatmap.label: heatmap.max_value() for heatmap in heatmaps}
        assert peaks == {row["router"] + " / " + row["faults"]:
                         row["max_channel_load"] for row in results.rows}
        assert peaks["bsor-dijkstra / none"] == 50.0
        assert peaks["bsor-dijkstra / link:5-6,link:9-10"] == 100.0

    def test_a_warm_report_solves_nothing(self, document, tmp_path,
                                          monkeypatch):
        plans = _recorded_plans(monkeypatch)
        page = tmp_path / "page.html"
        for _ in range(2):
            assert main(["--cache-dir", str(tmp_path / "cache"), "report",
                         document, "--output", str(page)]) == 0
        cold, warm = plans[:4], plans[4:]
        assert len(warm) == 4
        assert not any(plan.cached for plan in cold)
        assert all(plan.cached for plan in warm)
        assert "bsor-dijkstra / link:5-6,link:9-10</th>" in page.read_text()

    def test_no_cache_plans_every_column(self, document, tmp_path,
                                         monkeypatch):
        plans = _recorded_plans(monkeypatch)
        for _ in range(2):
            assert main(["--no-cache", "--cache-dir", str(tmp_path),
                         "report", document, "--output", "-"]) == 0
        assert len(plans) == 8 and not any(plan.cached for plan in plans)
        assert not list(tmp_path.iterdir())


class TestTheDegradedExample:
    """``examples/studies/degraded.yaml``: each column peaks at the maximum
    channel load of its router's plan on the degraded mesh."""

    @pytest.mark.parametrize("router, faults, peak", [
        ("dor", "none", 75.0),
        ("dor", "link:5-6,link:9-10,link:1-2,link:13-14@600", 125.0),
        ("bsor-dijkstra", "none", 50.0),
        ("bsor-dijkstra", "link:5-6,link:9-10", 100.0),
    ])
    def test_the_column_peaks_at_the_plans_mcl(self, router, faults, peak):
        rows = [{"scenario": "robustness", "mode": "saturate",
                 "topology": "mesh4x4", "pattern": "transpose",
                 "router": router, "faults": faults,
                 "max_channel_load": peak}]
        heatmaps, notes = heatmaps_for(
            ResultSet(rows), Study.from_file(DEGRADED_STUDY).to_dict(),
            cache=False)
        assert notes == []
        [heatmap] = heatmaps
        assert (heatmap.router, heatmap.max_value()) == (router, peak)
        assert heatmap.faults == FaultSet.from_spec(faults).label()


class TestAWarmBsorMilpReport:
    def test_every_plan_of_the_second_run_is_cached(self, tmp_path,
                                                    monkeypatch, capsys):
        rows = [{"topology": "mesh4", "pattern": "transpose",
                 "router": "bsor-milp", "offered_rate": 1.0,
                 "max_channel_load": 50.0}]
        document = _write(tmp_path, rows)
        plans = _recorded_plans(monkeypatch)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main([*cache, "report", document]) == 0
        assert [plan.cached for plan in plans] == [False]
        assert main([*cache, "report", document]) == 0
        assert [plan.cached for plan in plans] == [False, True]


class TestAHostileEmbeddedStudy:
    """A study that fails ``Study.from_dict`` costs the heatmap, not the
    page: the tables render and a note names the error."""

    @staticmethod
    def _study(**scenario):
        return {"name": "demo", "scenarios": [{
            "name": "s", "topologies": ["mesh4"], "patterns": ["transpose"],
            "routers": ["dor", "bsor-dijkstra"], "rates": [1.0, 2.0],
            **scenario}]}

    def _page(self, tmp_path, study):
        return build_report(_write(tmp_path, {"study": study,
                                              "rows": _sweep_rows()}),
                            cache=False)

    def _assert_tables_and_note(self, page, error, text):
        assert "throughput (packets/cycle)" in page
        assert "average latency (cycles)" in page
        assert "channel load</h2>" not in page
        assert f"the document&#x27;s study does not load ({error}: " in page
        assert text in page

    def test_the_sound_study_draws_the_heatmap(self, tmp_path):
        page = self._page(tmp_path, self._study())
        assert "channel load</h2>" in page and "note:" not in page

    @pytest.mark.parametrize("study", [42, "demo", ["demo"]])
    def test_a_study_of_the_wrong_type(self, tmp_path, study):
        self._assert_tables_and_note(self._page(tmp_path, study),
                                     "StudyError", "must be a mapping")

    def test_an_unknown_router(self, tmp_path):
        page = self._page(tmp_path, self._study(routers=["warp-drive"]))
        self._assert_tables_and_note(page, "StudyError", "warp-drive")

    def test_a_bad_fault_spec(self, tmp_path):
        page = self._page(tmp_path, self._study(faults=["wire:5-6"]))
        self._assert_tables_and_note(page, "StudyError", "wire:5-6")


class TestTheReportCommand:
    @pytest.mark.parametrize("flag", ["--cycles", "--buckets", "--rate"])
    def test_the_injection_trace_options_are_gone(self, flag, tmp_path,
                                                   capsys):
        assert main(["report", "--help"]) == 0
        assert flag not in capsys.readouterr().out
        assert main(["report", _write(tmp_path, _sweep_rows()),
                     flag, "8"]) == 2
        assert f"unrecognized arguments: {flag} 8" in capsys.readouterr().err


class TestRenderedPage:
    def test_build_report_end_to_end(self, tmp_path):
        page = build_report(_write(tmp_path, _sweep_rows()), cache=False)
        assert page.startswith("<!DOCTYPE html>")
        assert "channel load</h2>" in page
        assert "throughput (packets/cycle)" in page
        assert "average latency (cycles)" in page
        assert "table view" in page
        # identity via text, magnitude via the sequential ramp
        assert SEQUENTIAL_RAMP[-1] in page
        # per-cell tooltips carry the values the color alone can't
        assert "under dor / none: 75" in page

    def test_no_heatmap_flag_skips_reconstruction(self, tmp_path,
                                                  monkeypatch):
        plans = _recorded_plans(monkeypatch)
        page = build_report(_write(tmp_path, _sweep_rows()),
                            with_heatmap=False)
        assert "channel load</h2>" not in page
        assert "throughput (packets/cycle)" in page
        assert plans == []

    def test_render_report_escapes_and_titles(self):
        page = render_report(ResultSet([]), title="<script>alert(1)</script>")
        assert "<script>alert(1)" not in page
        assert "&lt;script&gt;" in page

    def test_saturate_rows_get_summary_section(self):
        rows = [{"mode": "saturate", "topology": "mesh4",
                 "pattern": "transpose", "router": "dor",
                 "saturation_rate": 2.5, "saturation_throughput": 2.2,
                 "low_load_latency": 9.5}]
        page = render_report(ResultSet(rows))
        assert "saturation summary" in page
        assert "2.500" in page or "2.5" in page
