"""End-to-end tests for study execution (:mod:`repro.study.execute`).

The heavyweight acceptance check lives here: a study describing Figure 6.7
must produce *bit-identical* results to the legacy figure path — asserted
by running the legacy CLI into a fresh cache directory and then requiring
the study run to be served 100% from that cache (the cache is content
addressed over every simulation input, so a full warm hit proves key-level
identity).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.study import Study

EXAMPLES = Path(__file__).parent.parent / "examples" / "studies"

yaml = pytest.importorskip("yaml")


class TestSweepScenario:
    def test_smoke_study_runs(self):
        result = Study.from_file(EXAMPLES / "smoke.yaml").run(cache=False)
        rows = result.results
        assert len(rows) == 2
        assert rows.distinct("router") == ["dor"]
        assert all(row["throughput"] > 0 for row in rows)
        assert all(row["p99_latency"] >= row["average_latency"] >= 0
                   for row in rows)
        assert result.report.points_total == 2

    def test_rows_carry_tags_and_route_metrics(self):
        study = (Study("tags").grid(topologies=["mesh4x4"], routers=["dor"],
                                    patterns=["transpose"])
                 .rates(0.5)).with_policy(profile="quick", workers=1)
        row = study.run(cache=False).results.rows[0]
        assert row["scenario"] == "scenario-1"
        assert row["mode"] == "sweep"
        assert row["topology"] == "mesh4x4"
        assert row["pattern"] == "transpose"
        assert row["router"] == "dor"
        assert row["display_name"] == "XY"
        assert row["vcs"] == 2  # the quick profile's VC count
        assert row["max_channel_load"] == pytest.approx(75.0)
        assert row["average_hops"] > 0

    def test_vcs_axis_expands_points(self):
        study = (Study("vcs").grid(topologies=["mesh4x4"], routers=["dor"],
                                   patterns=["transpose"], vcs=[1, 2])
                 .rates(0.5)).with_policy(profile="quick", workers=1)
        rows = study.run(cache=False).results
        assert len(rows) == 2
        assert sorted(rows.distinct("vcs")) == [1, 2]

    def test_seed_and_mapping_overrides_apply(self):
        study = Study.from_dict({
            "name": "mapped",
            "profile": "quick",
            "workers": 1,
            "scenarios": [{
                "topologies": ["mesh4x4"],
                "routers": ["dor"],
                "patterns": ["decoder-pipeline"],
                "rates": [0.5],
                "mapping": "spread",
                "seed": 7,
            }],
        })
        result = study.run(cache=False)
        assert len(result.results) == 1
        assert result.results.rows[0]["pattern"] == "decoder-pipeline"


class TestSaturateScenario:
    def test_saturation_example_matches_golden_markdown(self):
        import os

        study = Study.from_file(EXAMPLES / "saturation.yaml")
        rendered = study.run(cache=False).render_markdown()
        golden = Path(__file__).parent / "golden" / "study_saturation.md"
        if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
            golden.write_text(rendered if rendered.endswith("\n")
                              else rendered + "\n")
        expected = golden.read_text()
        assert rendered.strip() == expected.strip()

    def test_saturate_rows_have_search_columns(self):
        study = Study.from_file(EXAMPLES / "saturation.yaml")
        rows = study.run(cache=False).results
        assert len(rows) == 2
        for row in rows:
            assert row["mode"] == "saturate"
            assert row["saturation_rate"] > 0
            assert row["sim_points"] >= 3
            assert isinstance(row["saturated_within_range"], bool)


class TestFigure67BitIdentity:
    """Acceptance: the figure_6_7.yaml study equals the legacy figure path.

    Runs the legacy ``figure 6.7`` CLI into a fresh cache, then requires
    the study to be answered entirely from that cache — a 100% hit rate
    over the content-addressed keys (topology, flows, routes, simulation
    config, rate) is bit-level identity of every simulated point.
    """

    def test_same_cache_keys_and_statistics(self, tmp_path, capsys):
        from repro.cli import main as runner_main

        cache_dir = str(tmp_path / "cache")
        code = runner_main(["figure", "6.7", "--profile", "quick",
                            "--workers", "1", "--cache-dir", cache_dir])
        assert code == 0
        # the runner summary is run bookkeeping, so it goes to stderr —
        # stdout carries only the figure itself
        legacy = capsys.readouterr()
        assert "36 points, 36 simulated, 0 cached" in legacy.err
        assert "points," not in legacy.out

        study = Study.from_file(EXAMPLES / "figure_6_7.yaml")
        result = study.run(profile="quick", workers=1, cache_dir=cache_dir)
        report = result.report
        assert report.points_total == 36
        assert report.points_simulated == 0, (
            "study simulated points the legacy figure path did not — the "
            "cache keys (and therefore the simulation inputs) diverged"
        )
        assert report.cache_hits == 36
        rows = result.results
        assert len(rows) == 36
        assert sorted(rows.distinct("vcs")) == [1, 2, 4, 8]
        assert rows.distinct("router") == ["dor", "bsor-milp",
                                           "bsor-dijkstra"]
        # statistics come straight from the shared cache entries, so each
        # field is the legacy value by construction; sanity-check shape
        assert all(row["throughput"] > 0 for row in rows)

    def test_legacy_rerun_hits_study_cache_too(self, tmp_path, capsys):
        """The identity is symmetric: study first, legacy second."""
        from repro.cli import main as runner_main

        cache_dir = str(tmp_path / "cache")
        study = Study.from_file(EXAMPLES / "figure_6_7.yaml")
        result = study.run(profile="quick", workers=1, cache_dir=cache_dir)
        assert result.report.points_simulated == 36

        code = runner_main(["figure", "6.7", "--profile", "quick",
                            "--workers", "1", "--cache-dir", cache_dir])
        assert code == 0
        assert "36 points, 0 simulated, 36 cached" in \
            capsys.readouterr().err
