"""Tests for the tagged result container (:mod:`repro.study.resultset`)."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.exceptions import StudyError
from repro.study import ResultSet


def sample() -> ResultSet:
    rows = []
    for router in ("XY", "BSOR"):
        for rate in (0.5, 1.0):
            rows.append({
                "topology": "mesh4x4",
                "router": router,
                "offered_rate": rate,
                "throughput": rate * (0.9 if router == "XY" else 1.0),
                "p99_latency": 20.0 + rate,
            })
    return ResultSet(rows)


class TestBasics:
    def test_len_iter_columns(self):
        results = sample()
        assert len(results) == 4
        assert results.columns == ["topology", "router", "offered_rate",
                                   "throughput", "p99_latency"]
        assert all(isinstance(row, dict) for row in results)

    def test_rows_are_copies(self):
        results = sample()
        results.rows[0]["router"] = "mutated"
        assert results.rows[0]["router"] == "XY"

    def test_missing_columns_read_none(self):
        results = ResultSet([{"a": 1}, {"b": 2}])
        assert results.columns == ["a", "b"]
        assert results.column("a") == [1, None]

    def test_distinct_first_seen_order(self):
        assert sample().distinct("router") == ["XY", "BSOR"]


class TestTransforms:
    def test_filter_by_tags(self):
        xy = sample().filter(router="XY")
        assert len(xy) == 2
        assert set(xy.column("router")) == {"XY"}

    def test_filter_by_predicate(self):
        fast = sample().filter(lambda row: row["throughput"] > 0.9)
        assert len(fast) == 1
        assert fast.rows[0]["router"] == "BSOR"

    def test_select_projects_and_orders(self):
        projected = sample().select("router", "throughput")
        assert projected.columns == ["router", "throughput"]
        assert "topology" not in projected.rows[0]

    def test_sort(self):
        ordered = sample().sort("offered_rate", "router")
        assert [row["offered_rate"] for row in ordered] == \
            [0.5, 0.5, 1.0, 1.0]

    def test_group_preserves_order(self):
        groups = sample().group("router")
        assert [key for key, _ in groups] == [("XY",), ("BSOR",)]
        assert all(len(group) == 2 for _, group in groups)

    def test_reduce_per_group(self):
        results = sample()
        assert results.reduce("throughput", max, "router") == \
            {"XY": 0.9, "BSOR": 1.0}
        assert results.reduce("p99_latency", list, "router", "offered_rate") \
            == {("XY", 0.5): [20.5], ("XY", 1.0): [21.0],
                ("BSOR", 0.5): [20.5], ("BSOR", 1.0): [21.0]}

    def test_pivot_wide_shape(self):
        wide = sample().pivot("offered_rate", "router", "throughput")
        assert wide.columns == ["offered_rate", "XY", "BSOR"]
        assert len(wide) == 2
        first = wide.rows[0]
        assert first["offered_rate"] == 0.5
        assert first["XY"] == pytest.approx(0.45)
        assert first["BSOR"] == pytest.approx(0.5)

    def test_pivot_duplicate_cell_rejected(self):
        doubled = sample().merged(sample())
        with pytest.raises(StudyError, match="duplicate cell"):
            doubled.pivot("offered_rate", "router", "throughput")

    def test_merged_unions_columns(self):
        merged = sample().merged(ResultSet([{"router": "YX", "extra": 1}]))
        assert len(merged) == 5
        assert "extra" in merged.columns


class TestExport:
    def test_markdown_pipe_table(self):
        text = sample().to_markdown()
        lines = text.splitlines()
        assert lines[0].startswith("| topology | router |")
        assert lines[1].startswith("| --- |")
        assert len(lines) == 2 + 4
        assert "| XY | 0.500 | 0.450 |" in lines[2]

    def test_markdown_drops_all_none_columns(self):
        results = ResultSet([{"a": 1, "b": None}, {"a": 2, "b": None}])
        assert "b" not in results.to_markdown()

    def test_markdown_formats_bools_and_none(self):
        results = ResultSet([{"ok": True, "x": None, "n": 3}])
        row = results.to_markdown(columns=["ok", "x", "n"]).splitlines()[2]
        assert row == "| yes |  | 3 |"

    def test_json_round_trips(self):
        parsed = json.loads(sample().to_json())
        assert len(parsed) == 4
        assert parsed[0]["router"] == "XY"

    def test_csv_has_header_and_rows(self):
        text = sample().to_csv()
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["topology", "router", "offered_rate",
                             "throughput", "p99_latency"]
        assert len(parsed) == 5

    def test_percentile_column_is_plumbed(self):
        # the study engine tags p99_latency onto every row; exports carry it
        assert "p99_latency" in sample().to_markdown()
        assert "p99_latency" in sample().to_csv().splitlines()[0]
