"""Golden regression suite for the ``figure`` and ``sweep`` commands.

Recorded from the commit *before* the figure harness was re-expressed as
in-code study scenarios: for each command below (``--profile quick
--workers 1 --cache-dir <tmp>``) the stdout bytes and the sorted keys of
the content-addressed cache entries it wrote.  Equal stdout means the
rendering did not drift; equal keys mean every simulated point has the
cache key it always had, so warm caches written by earlier commits stay
valid.  Regenerate only deliberately with ``REPRO_UPDATE_GOLDEN=1``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.runner.cache import ResultCache

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"

COMMANDS = {
    "figure_6_1": ["figure", "6-1"],
    "figure_6_4": ["figure", "6-4"],
    "figure_6_7": ["figure", "6.7"],
    "figure_6_9": ["figure", "6-9"],
    "figure_sweep": ["sweep", "--workload", "transpose",
                     "--algorithms", "XY,BSOR-Dijkstra"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_and_cache_entries_match_the_recording(name, tmp_path, capsys):
    code = main(COMMANDS[name] + ["--profile", "quick", "--workers", "1",
                                  "--cache-dir", str(tmp_path)])
    stdout = capsys.readouterr().out
    entries = sorted(ResultCache(tmp_path).keys())
    assert code == 0 and entries
    text_file = GOLDEN_DIR / f"{name}.txt"
    keys_file = GOLDEN_DIR / f"{name}.json"
    if UPDATE:
        text_file.write_text(stdout)
        keys_file.write_text(json.dumps(entries, indent=2) + "\n")
    assert stdout == text_file.read_text()
    assert entries == json.loads(keys_file.read_text())
