"""One result path: everything the CLI computes leaves as ``ResultSet`` rows.

Pins what the fold of ``compare`` and the MCL tables onto the study
document must keep (stdout and documents recorded at the commit *before*
it: the three tables at the quick profile, the JSON document of every
bundled study, the HTML page of the smoke study) and what it fixed: a
``compare`` document ``report`` can read, a degradation table wherever a
saturate study has a fault axis, stdout free of run bookkeeping, and tables
that honour the cache flags.  Regenerate the table goldens only
deliberately with ``REPRO_UPDATE_GOLDEN=1``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
EXAMPLES = Path(__file__).parent.parent / "examples" / "studies"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"

#: sha256 of `run <study> --profile quick --format json` stdout, and of the
#: page `report smoke.json --output -` renders for smoke.yaml's document
#: (re-recorded when the heatmap became the plans' static channel load).
#: figure_6_7 was re-recorded when a document began to embed the profile
#: that ran: its spec says `default`, so only its `profile` key moved.
PARENT_DIGESTS = {
    "degraded": "d53d438d91669a4fbd508b89174471e8"
                "b4603ea9fcb3ace239e652ad26b1ae8a",
    "figure_6_7": "5de4e8c5cac9847160ebf0d0299dbc1d"
                  "63054a0ac4e2ecc9854d3b8b2629958d",
    "saturation": "adb1b66b27f96a800f7e758a97c17bd9"
                  "a9b825b9e1b7eb60f291fead28e75da2",
    "smoke": "3be6f16d424c15b1d6ea1580fa881b92"
             "a364c129bbb4f61c3bec8f5b8f8b3ae8",
    "smoke.html": "5b9a645fee55d9ec5ac5d9d6331bd7bd"
                  "5ec0a57603521851e5ce1d2d50adff09",
}

COMPARE = ["compare", "--profile", "quick", "--topology", "mesh4x4",
           "--patterns", "transpose", "--routers", "dor,bsor-dijkstra",
           "--faults", "none;link:5-6"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _plan_events(stderr: str) -> list:
    events = [json.loads(line)["event"] for line in stderr.splitlines()
              if line.startswith("{")]
    return [event for event in events if event.startswith("plan_")]


# ----------------------------------------------------------------------
# byte-identical where nothing was meant to change
# ----------------------------------------------------------------------
@pytest.mark.parametrize("number", ["6-1", "6-2", "6-3"])
def test_table_stdout_matches_the_recording(number, tmp_path, capsys):
    assert main(["table", number, "--profile", "quick", "--workers", "1",
                 "--cache-dir", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    golden = GOLDEN_DIR / f"table_{number.replace('-', '_')}.txt"
    if UPDATE:
        golden.write_text(stdout)
    assert stdout == golden.read_text()
    assert "*" not in stdout  # every quick-profile MILP cell is proven


@pytest.mark.parametrize("name", ["degraded", "figure_6_7", "saturation",
                                  "smoke"])
def test_study_documents_are_byte_identical_to_the_parents(name, tmp_path,
                                                           capsys):
    assert main(["run", str(EXAMPLES / f"{name}.yaml"), "--profile", "quick",
                 "--format", "json", "--workers", "1",
                 "--cache-dir", str(tmp_path)]) == 0
    assert _digest(capsys.readouterr().out) == PARENT_DIGESTS[name]


def test_smoke_report_page_is_byte_identical_to_the_parents(tmp_path, capsys):
    document = tmp_path / "smoke.json"
    assert main(["run", str(EXAMPLES / "smoke.yaml"), "--format", "json",
                 "--no-cache", "--output", str(document)]) == 0
    capsys.readouterr()
    assert main(["--no-cache", "report", str(document),
                 "--output", "-"]) == 0
    assert _digest(capsys.readouterr().out) == PARENT_DIGESTS["smoke.html"]


# ----------------------------------------------------------------------
# compare is a saturate study
# ----------------------------------------------------------------------
def test_report_renders_the_document_compare_writes(tmp_path, capsys):
    """Regression: `report` exited 1 on `compare --json --output`'s file
    ("neither a study document ... nor a JSON array")."""
    document = tmp_path / "f.json"
    assert main([*COMPARE, "--no-cache", "--format", "json",
                 "--output", str(document)]) == 0
    assert main(["--no-cache", "report", str(document)]) == 0
    page = (tmp_path / "f.html").read_text()
    assert "saturation summary" in page
    assert "Degradation under faults" in page
    # the CLI document carries the study columns, not the search's trail
    rows = json.loads(document.read_text())["rows"]
    assert len(rows) == 4 and "observations" not in rows[0]


def test_compare_stdout_is_pure_data(tmp_path, capsys):
    """Regression: the markdown footer embedded `N simulated, M cached, W
    worker(s)`, so a warm or wider run printed a different stdout."""
    cache = ["--cache-dir", str(tmp_path)]
    assert main([*COMPARE, *cache, "--workers", "1"]) == 0
    cold = capsys.readouterr()
    assert main([*COMPARE, *cache, "--workers", "2"]) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out
    assert "## Degradation under faults" in cold.out
    assert ", 0 cached, 1 worker(s)" in cold.err
    assert " 0 simulated, " in warm.err and "2 worker(s)" in warm.err


def test_saturate_is_compare_under_another_name(tmp_path, capsys):
    # --faults was an unknown option of saturate's private parser
    cache = ["--cache-dir", str(tmp_path)]
    assert main([*COMPARE, *cache, "--format", "csv"]) == 0
    compared = capsys.readouterr().out
    assert main(["saturate", *COMPARE[1:], *cache, "--format", "csv"]) == 0
    assert capsys.readouterr().out == compared
    assert compared.count("link:5-6") == 2


def test_degraded_study_ends_with_the_table_its_header_promises(tmp_path,
                                                                capsys):
    assert "ends with a degradation\n# table" in \
        (EXAMPLES / "degraded.yaml").read_text()
    assert main(["run", str(EXAMPLES / "degraded.yaml"), "--workers", "1",
                 "--cache-dir", str(tmp_path)]) == 0
    tail = capsys.readouterr().out.split("## Degradation under faults")[1]
    assert tail.count("| robustness |") == 9
    assert tail.rstrip().endswith("% |")


# ----------------------------------------------------------------------
# tables are cached plans
# ----------------------------------------------------------------------
def test_a_second_table_run_solves_nothing(tmp_path, capsys):
    """Regression: `table` ignored --cache-dir (6 executed, every time)."""
    table = ["table", "6-1", "--profile", "quick", "--progress", "jsonl",
             "--cache-dir", str(tmp_path)]
    assert main(table) == 0
    cold = capsys.readouterr()
    assert _plan_events(cold.err) == ["plan_solved"] * 30
    assert "[0 plan(s) cached, 30 solved, cache at " in cold.err
    assert main(table) == 0
    warm = capsys.readouterr()
    assert _plan_events(warm.err) == ["plan_cached"] * 30
    assert "[30 plan(s) cached, 0 solved, cache at " in warm.err
    assert warm.out == cold.out
    assert main([*table, "--no-cache"]) == 0
    fresh = capsys.readouterr()
    assert _plan_events(fresh.err) == ["plan_solved"] * 30
    assert "[every plan solved, cache disabled; " in fresh.err
    assert fresh.out == cold.out


def test_table_6_3_shares_its_plans_with_the_figures(tmp_path, capsys):
    cache = ["--profile", "quick", "--workers", "1",
             "--cache-dir", str(tmp_path)]
    assert main(["figure", "6-1", *cache]) == 0
    capsys.readouterr()
    assert main(["table", "6-3", *cache, "--progress", "jsonl"]) == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()
              if line.startswith("{")]
    assert {event["event"] for event in events
            if event["pattern"] == "transpose"} == {"plan_cached"}
    assert {event["event"] for event in events
            if event["pattern"] != "transpose"} == {"plan_solved"}
