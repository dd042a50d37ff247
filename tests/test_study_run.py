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
        # the overrides are outcome fields of the config the scenario ran
        # under: the mapping, and the seed on the one simulation config
        assert result.config.mapping_strategy == "spread"
        assert result.config.simulation.seed == 7

    def test_scenarios_with_other_seeds_report_the_study_config(self):
        study = Study.from_dict({
            "name": "two-seeds", "profile": "quick", "workers": 1,
            "scenarios": [{"topologies": ["mesh4x4"], "routers": ["dor"],
                           "patterns": ["transpose"], "rates": [0.5],
                           "seed": seed} for seed in (3, 7)],
        })
        result = study.run(cache=False)
        assert result.config.simulation.seed == 0
        first, second = result.results.rows
        assert first["average_latency"] != second["average_latency"]


def _seeded_study(seed=None) -> Study:
    """dor at one VC and the seeded ROMM: two cells whose simulation keys
    ``golden/simulation_point_keys.json`` pinned before a study's seed
    reached the simulator."""
    scenarios = [
        {"topologies": ["mesh4x4"], "patterns": ["transpose"],
         "routers": ["dor"], "vcs": [1], "rates": [1.0]},
        {"topologies": ["mesh4x4"], "patterns": ["transpose"],
         "routers": ["romm"], "rates": [2.5]},
    ]
    if seed is not None:
        for scenario in scenarios:
            scenario["seed"] = seed
    return Study.from_dict({"name": "seeded", "profile": "quick",
                            "workers": 1, "scenarios": scenarios})


def _run_keys(study: Study, cache_dir: Path):
    """``(rows, point keys, plan keys)`` of *study* run into *cache_dir*."""
    from repro.runner.cache import PLAN_SUBDIR, ResultCache

    result = study.run(cache_dir=str(cache_dir))
    return (result.results.rows, set(ResultCache(cache_dir).keys()),
            set(ResultCache(cache_dir / PLAN_SUBDIR).keys()))


#: The route-plan keys of :func:`_seeded_study`'s dor and ROMM cells,
#: recorded before a study's seed reached the simulator.
SEEDED_PLAN_KEYS = {
    "6a74dcfd87fb2a92e796d862fa38bd966d9060efb14eb0e151112c62ba974d39",
    "e8802d7dd01c208408346eb4e84cec5b260054a5518012fd04efff4534463bcf",
}


class TestTheStudySeed:
    """A scenario's ``seed:`` is ``SimulationConfig.seed``: it reaches the
    seeded routers, the placement and the injection process — and so both
    kinds of cache key."""

    def test_unset_and_zero_seeds_keep_the_recorded_keys(self, tmp_path):
        import json

        golden = Path(__file__).parent / "golden" / \
            "simulation_point_keys.json"
        points = json.loads(golden.read_text())
        unset = _run_keys(_seeded_study(), tmp_path / "unset")
        zero = _run_keys(_seeded_study(0), tmp_path / "zero")
        assert unset == zero
        assert unset[1] == {points["point|dor|none|vcs=1|rate=1.0"],
                            points["point|romm|none|rate=2.5"]}
        assert unset[2] == SEEDED_PLAN_KEYS

    def test_a_different_seed_gives_other_keys_and_other_rows(self,
                                                              tmp_path):
        rows, points, plans = _run_keys(_seeded_study(0), tmp_path / "0")
        rows7, points7, plans7 = _run_keys(_seeded_study(7), tmp_path / "7")
        assert len(points7) == 2 and not points & points7
        # dor takes no seed, so only ROMM's plan moves
        assert len(plans & plans7) == 1
        statistics = ("throughput", "average_latency", "p99_latency")
        for row, row7 in zip(rows, rows7):
            assert (row["router"], row["offered_rate"]) == \
                (row7["router"], row7["offered_rate"])
            assert [row[name] for name in statistics] != \
                [row7[name] for name in statistics]


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


# ----------------------------------------------------------------------
# the determinism contract: every field of both configs is in a key
# ----------------------------------------------------------------------
#: Every field of :class:`ExperimentConfig` (``simulation`` field by field)
#: and of :class:`SimulationConfig`: a changed value, and the cache keys
#: that change moves.  A result is looked up by these keys alone, so a
#: field in no key would let the cache answer for a run that never
#: happened; ``backend`` is the one field in none (the kernels are
#: bit-identical).  A new field fails until it is classified here.
KEYED_FIELDS = {
    "mesh_size": (8, {"plan", "point"}),
    "synthetic_demand": (50.0, {"plan", "point"}),
    "offered_rates": ((9.0,), {"point"}),
    "hop_slack": (0, {"plan"}),
    "milp_time_limit": (20.0, {"plan"}),
    "explore_full_cdg_set": (True, {"plan"}),
    "mapping_strategy": ("row-major", {"plan", "point"}),
    "num_vcs": (4, {"point"}),
    "buffer_depth": (8, {"point"}),
    "packet_size_flits": (8, {"point"}),
    "warmup_cycles": (301, {"point"}),
    "measurement_cycles": (1201, {"point"}),
    "local_bandwidth": (2, {"point"}),
    "injection_buffer_depth": (32, {"point"}),
    "seed": (7, {"plan", "point"}),
    "bandwidth_variation": (0.1, {"point"}),
    "variation_dwell_cycles": (100, {"point"}),
    "drop_when_source_full": (True, {"point"}),
    "backend": ("reference", set()),
}


class _PlanKeyProbe:
    """A plan cache that answers nothing: it records the key it is asked
    for and stops the planner there, before anything is solved."""

    class Asked(Exception):
        pass

    def get_plan(self, key, decode):
        raise self.Asked(key)


def _keys(config):
    """Each key kind a config reaches, over a synthetic pattern and an
    application: ROMM / BSOR plan keys and dor's simulation keys."""
    from repro.planning import parse_topology, pattern_flow_set, plan_routes
    from repro.runner.fingerprint import simulation_cache_key

    topology = parse_topology(f"mesh{config.mesh_size}x{config.mesh_size}")
    plans, points = [], set()
    for pattern in ("transpose", "decoder-pipeline"):
        flow_set = pattern_flow_set(pattern, topology, config)
        for router in ("romm", "bsor-milp", "bsor-dijkstra"):
            try:
                plan_routes(router, topology, flow_set, config,
                            cache=_PlanKeyProbe())
            except _PlanKeyProbe.Asked as asked:
                plans.append(asked.args[0])
        routes = plan_routes("dor", topology, flow_set, config).route_set
        points.update(simulation_cache_key(topology, routes,
                                           config.simulation, rate)
                      for rate in config.offered_rates)
    return {"plan": plans, "point": points}


def test_every_config_field_is_classified():
    import dataclasses

    from repro.experiments.config import ExperimentConfig
    from repro.simulator.config import SimulationConfig

    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    fields.remove("simulation")
    fields |= {field.name for field in dataclasses.fields(SimulationConfig)}
    assert set(KEYED_FIELDS) == fields


@pytest.mark.parametrize("name", sorted(KEYED_FIELDS))
def test_a_config_field_moves_the_keys_it_is_classified_in(name):
    import dataclasses

    from repro.experiments.config import ExperimentConfig

    quick = ExperimentConfig.quick()
    value, kinds = KEYED_FIELDS[name]
    if hasattr(quick.simulation, name):
        changed = dataclasses.replace(
            quick, simulation=dataclasses.replace(quick.simulation,
                                                  **{name: value}))
    else:
        changed = dataclasses.replace(quick, **{name: value})
    assert changed != quick
    before, after = _keys(quick), _keys(changed)
    assert {kind for kind in before if before[kind] != after[kind]} == kinds
