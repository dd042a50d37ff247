"""Golden regression tests for the saturation report.

A hand-built, fully deterministic saturate-mode :class:`StudyResult` — the
one document ``compare``, ``saturate`` and ``run`` all print — is rendered
to markdown, JSON and CSV and compared against fixtures stored in
``tests/golden/``.  Report refactors that change the output must regenerate
the fixtures deliberately (run this file with ``REPRO_UPDATE_GOLDEN=1``) —
they can no longer change silently.

Comparisons are normalized: trailing whitespace is ignored in markdown, and
JSON is compared as parsed objects with floats rounded, so irrelevant float
formatting differences do not trip the test.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

from repro.experiments import ExperimentConfig
from repro.runner.engine import RunnerReport
from repro.study import (
    SATURATE_COLUMNS,
    ResultSet,
    Scenario,
    Study,
    StudyResult,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"


def _row(pattern: str, router: str, display: str, stable: float,
         saturated: float, mcl: float, hops: float, faults: str = "none",
         within_range: bool = True) -> dict:
    return {
        "scenario": "robustness",
        "mode": "saturate",
        "topology": "mesh8x8",
        "pattern": pattern,
        "router": router,
        "display_name": display,
        "faults": faults,
        "saturation_rate": saturated,
        "saturated_within_range": within_range,
        "saturation_throughput": stable * 0.9,
        "low_load_latency": 11.125,
        "p99_latency": 27.5,
        "max_channel_load": mcl,
        "average_hops": hops,
        "sim_points": 4,
    }


def golden_result() -> StudyResult:
    """A deterministic saturate study with a fault axis: per router a
    baseline plus two degraded points (the retained-throughput ratios), a
    router that never saturated within the range, and a faulty row whose
    baseline delivered nothing (``n/a``)."""
    faults = ("none", "link:0-1", "link:0-1,link:5-6@600")
    rows = [
        _row("transpose", "dor", "XY", 2.0, 2.25, 175.0, 4.67),
        _row("transpose", "dor", "XY", 1.5, 1.75, 180.0, 4.71,
             faults="link:0-1"),
        _row("transpose", "dor", "XY", 1.0, 1.25, 195.0, 4.80,
             faults="link:0-1,link:5-6@600"),
        _row("transpose", "bsor-dijkstra", "BSOR-Dijkstra",
             2.5, 2.75, 150.0, 4.67),
        _row("transpose", "bsor-dijkstra", "BSOR-Dijkstra",
             2.25, 2.5, 155.0, 4.69, faults="link:0-1"),
        _row("transpose", "bsor-dijkstra", "BSOR-Dijkstra",
             2.0, 2.25, 160.0, 4.74, faults="link:0-1,link:5-6@600"),
        _row("decoder-pipeline", "o1turn", "O1TURN", 16.0, 16.0, 120.4, 2.18,
             within_range=False),
        _row("decoder-pipeline", "valiant", "Valiant", 0.0, 0.25, 240.8, 4.4),
        _row("decoder-pipeline", "valiant", "Valiant", 0.25, 0.5, 250.0, 4.5,
             faults="link:0-1"),
    ]
    study = Study(
        "degraded",
        description="A hand-built saturation study with a fault axis.",
        scenarios=[Scenario(
            name="robustness", mode="saturate", topologies=("mesh8x8",),
            patterns=("transpose", "decoder-pipeline"),
            routers=("dor", "bsor-dijkstra", "o1turn", "valiant"),
            faults=faults)],
    )
    return StudyResult(
        study=study,
        results=ResultSet(rows, columns=SATURATE_COLUMNS),
        report=RunnerReport(points_total=36, points_simulated=27,
                            cache_hits=9, workers=4),
        config=ExperimentConfig(),
    )


def _check_or_update(name: str, rendered: str) -> str:
    path = GOLDEN_DIR / name
    if UPDATE:
        path.write_text(rendered if rendered.endswith("\n")
                        else rendered + "\n")
    assert path.exists(), (
        f"golden fixture {path} missing; regenerate with "
        f"REPRO_UPDATE_GOLDEN=1"
    )
    return path.read_text()


def _normalize_markdown(text: str) -> str:
    return "\n".join(line.rstrip() for line in text.strip().splitlines())


def _round_floats(value, digits: int = 9):
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, list):
        return [_round_floats(item, digits) for item in value]
    if isinstance(value, dict):
        return {key: _round_floats(item, digits)
                for key, item in value.items()}
    return value


def test_markdown_report_matches_golden():
    rendered = golden_result().render_markdown()
    expected = _check_or_update("study_degraded.md", rendered)
    assert _normalize_markdown(rendered) == _normalize_markdown(expected)


def test_json_report_matches_golden():
    rendered = golden_result().to_json()
    expected = _check_or_update("study_degraded.json", rendered)
    assert _round_floats(json.loads(rendered)) == \
        _round_floats(json.loads(expected))


def test_json_report_is_sorted_and_stable():
    first = golden_result().to_json()
    assert first == golden_result().to_json()
    parsed = json.loads(first)
    assert list(parsed) == sorted(parsed) == ["rows", "study"]
    assert all(list(row) == sorted(SATURATE_COLUMNS)
               for row in parsed["rows"])


def test_csv_report_is_the_saturate_columns():
    table = list(csv.reader(io.StringIO(golden_result().to_csv())))
    assert tuple(table[0]) == SATURATE_COLUMNS
    assert len(table) == 1 + 9
    assert table[1][:7] == ["robustness", "saturate", "mesh8x8", "transpose",
                            "dor", "XY", "none"]


def test_markdown_report_structure():
    rendered = golden_result().render_markdown()
    assert rendered.count("## robustness: mesh8x8 / ") == 2  # one per group
    summary, degradation = rendered.split("## Degradation under faults")
    assert "| faults |" in summary
    # every (router, fault set) row appears exactly once in its group
    for display, count in (("XY", 3), ("BSOR-Dijkstra", 3), ("O1TURN", 1),
                           ("Valiant", 2)):
        assert sum(1 for line in summary.splitlines()
                   if line.startswith(f"| {display} |")) == count
    # not saturated within the search range is a column, not a footnote
    [o1turn] = [line for line in summary.splitlines()
                if line.startswith("| O1TURN |")]
    assert "| 16 | no |" in o1turn
    # five degraded rows in the degradation table, none for the baselines
    assert degradation.count("| mesh8x8 |") == 5
    assert "| none |" not in degradation
    # retained ratios: the worst XY point is 0.9 / 1.8, and a faulty row
    # whose baseline delivered nothing has no ratio
    assert [line.split("|")[-2].strip()
            for line in degradation.splitlines() if "| mesh8x8 |" in line] \
        == ["75.0%", "50.0%", "90.0%", "80.0%", "n/a"]


def test_no_fault_axis_no_degradation_table():
    result = golden_result()
    result.results = result.results.filter(faults="none")
    rendered = result.render_markdown()
    assert "Degradation under faults" not in rendered
    assert "| faults |" not in rendered
