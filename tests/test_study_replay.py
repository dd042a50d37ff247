"""A result document is its own recipe.

The study a document embeds names the profile its rows ran under, so
re-running that study with no override gives the document again, and
``repro report`` of it plans the very plans its rows came from.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro import Study
from repro.cli import main

EXAMPLES = Path(__file__).parent.parent / "examples" / "studies"


@pytest.mark.parametrize("name", ["degraded", "figure_6_7", "saturation",
                                  "smoke"])
def test_a_quick_document_replays_to_itself(name, tmp_path, capsys):
    document = tmp_path / "document.json"
    cache = str(tmp_path / "cache")
    assert main(["run", str(EXAMPLES / f"{name}.yaml"), "--profile", "quick",
                 "--format", "json", "--workers", "1", "--cache-dir", cache,
                 "--output", str(document), "--progress", "quiet"]) == 0
    recorded = json.loads(document.read_text())
    assert recorded["study"]["profile"] == "quick"

    replay = Study.from_dict(recorded["study"]).run(workers=1,
                                                    cache_dir=cache)
    assert json.loads(replay.to_json()) == recorded

    capsys.readouterr()
    assert main(["--cache-dir", cache, "report", str(document),
                 "--output", "-"]) == 0
    page = capsys.readouterr().out
    assert "channel load</h2>" in page
    notes = re.findall(r"<p class='note'>note: (.*?)</p>", page)
    assert all("more column(s) not shown" in note for note in notes), notes


def test_a_profile_override_leaves_the_callers_study_alone():
    study = Study("override").grid(routers=["dor"],
                                   patterns=["transpose"]).rates(0.5)
    result = study.run(profile="quick", cache=False, workers=1)
    assert study.policy.profile == "default"
    assert result.study.policy.profile == "quick"
    assert "Profile `quick`" in result.render_markdown()
