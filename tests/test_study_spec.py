"""Tests for the declarative study layer (:mod:`repro.study.spec`).

Covers the fluent builder, dict/YAML/JSON round trips (including the
``from_file -> to_file`` stability the CLI relies on) and the schema
validation error messages (unknown keys, unknown names, bad values — all
with did-you-mean hints).
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import StudyError
from repro.study import ExecutionPolicy, Scenario, Study

yaml = pytest.importorskip("yaml")


class TestFluentBuilder:
    def test_grid_rates_example_from_the_docs(self):
        study = (Study("sat")
                 .grid(routers=["dor", "o1turn", "bsor-dijkstra"],
                       patterns=["transpose"])
                 .rates(0.05, 0.9, step=0.05))
        study.validate()
        scenario = study.scenarios[0]
        assert scenario.routers == ("dor", "o1turn", "bsor-dijkstra")
        assert scenario.rates[0] == pytest.approx(0.05)
        assert scenario.rates[-1] == pytest.approx(0.9)
        assert len(scenario.rates) == 18
        assert scenario.mode == "sweep"

    def test_single_rate_and_explicit_values(self):
        assert Study("s").grid().rates(2.5).scenarios[0].rates == (2.5,)
        assert Study("s").grid().rates(0, values=[1.0, 2.0]) \
            .scenarios[0].rates == (1.0, 2.0)

    def test_rates_without_step_is_an_error(self):
        with pytest.raises(StudyError, match="positive.*step|needs a "
                                             "positive step"):
            Study("s").grid().rates(0.1, 0.9)

    def test_saturate_switches_mode(self):
        study = Study("s").grid(routers=["dor"]).saturate(max_rate=4.0,
                                                          resolution=0.5)
        scenario = study.scenarios[0]
        assert scenario.mode == "saturate"
        assert scenario.max_rate == 4.0
        assert scenario.rates == ()

    def test_rates_after_saturate_clears_bounds(self):
        # switching back to sweep must clear the saturate-only fields,
        # otherwise the built study fails validation at run time
        study = (Study("s").grid(routers=["dor"])
                 .saturate(max_rate=4.0).rates(0.5, 1.0, step=0.5))
        study.validate()
        scenario = study.scenarios[0]
        assert scenario.mode == "sweep"
        assert scenario.max_rate is None

    def test_rates_before_grid_creates_a_scenario(self):
        study = Study("s").rates(1.0)
        assert len(study.scenarios) == 1

    def test_multiple_grids_append_scenarios(self):
        study = (Study("s")
                 .grid(routers=["dor"]).rates(1.0)
                 .grid(routers=["yx"]).saturate())
        assert len(study.scenarios) == 2
        assert study.scenarios[0].mode == "sweep"
        assert study.scenarios[1].mode == "saturate"

    def test_with_policy(self):
        study = Study("s").grid().with_policy(profile="quick", workers=2)
        assert study.policy.profile == "quick"
        assert study.policy.workers == 2

    def test_with_policy_unknown_field(self):
        with pytest.raises(StudyError, match="unknown execution-policy"):
            Study("s").with_policy(worker_count=2)


class TestValidation:
    def test_unknown_study_key_did_you_mean(self):
        with pytest.raises(StudyError, match=r"unknown key 'profil'.*did "
                                             r"you mean 'profile'"):
            Study.from_dict({"name": "s", "profil": "quick",
                             "scenarios": [{}]})

    def test_unknown_scenario_key_did_you_mean(self):
        with pytest.raises(StudyError, match=r"scenario.*unknown key "
                                             r"'routrs'.*did you mean"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"routrs": ["dor"]}]})

    def test_unknown_router_carries_registry_hint(self):
        with pytest.raises(StudyError, match="unknown routing algorithm "
                                             "'bsor-dijkstr'.*did you mean"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"routers": ["bsor-dijkstr"]}]})

    def test_unknown_pattern_lists_vocabulary(self):
        with pytest.raises(StudyError, match="unknown synthetic pattern"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"patterns": ["transposs"]}]})

    def test_registered_workload_accepted_as_pattern(self):
        study = Study.from_dict({
            "name": "s",
            "scenarios": [{"patterns": ["decoder-pipeline"],
                           "routers": ["dor"]}],
        })
        assert study.scenarios[0].patterns == ("decoder-pipeline",)

    def test_unknown_topology(self):
        with pytest.raises(StudyError, match="unknown topology spec"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"topologies": ["cube3"]}]})

    def test_each_construction_validates_a_scenario_once(self, monkeypatch):
        """Validation builds every named topology in full, so count it."""
        import repro.compare.matrix as matrix

        parsed = []
        parse_topology = matrix.parse_topology
        monkeypatch.setattr(
            matrix, "parse_topology",
            lambda spec: parsed.append(spec) or parse_topology(spec))
        scenario = {"topologies": ["mesh4x4"], "routers": ["dor"]}

        study = Study.from_dict({"name": "s", "scenarios": [scenario]})
        assert parsed == ["mesh4x4"]
        Scenario.from_dict(scenario)          # standalone: still validated
        assert parsed == ["mesh4x4"] * 2
        study.validate()                      # what run_study calls first
        assert parsed == ["mesh4x4"] * 3

    def test_unknown_profile_and_mode_and_backend(self):
        with pytest.raises(StudyError, match="unknown profile 'quik'.*did "
                                             "you mean 'quick'"):
            Study.from_dict({"name": "s", "profile": "quik",
                             "scenarios": [{}]})
        with pytest.raises(StudyError, match="unknown mode 'sweeep'"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"mode": "sweeep"}]})
        with pytest.raises(StudyError, match="unknown simulator backend"):
            Study.from_dict({"name": "s", "backend": "fsat",
                             "scenarios": [{}]})

    def test_missing_name_and_scenarios(self):
        with pytest.raises(StudyError, match="missing required key 'name'"):
            Study.from_dict({"scenarios": [{}]})
        with pytest.raises(StudyError, match="at least one scenario"):
            Study.from_dict({"name": "s"})

    def test_vcs_reject_non_integers(self):
        with pytest.raises(StudyError, match="expected an integer, "
                                             "got 2.5"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"vcs": [2.5]}]})

    def test_rates_reject_nonpositive_and_nonnumeric(self):
        with pytest.raises(StudyError, match="must be positive"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"rates": [0.5, -1]}]})
        with pytest.raises(StudyError, match="expected a number"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"rates": ["fast"]}]})

    def test_saturate_rejects_explicit_rates(self):
        with pytest.raises(StudyError, match="saturation search chooses"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"mode": "saturate",
                                            "rates": [1.0]}]})

    def test_sweep_rejects_saturation_bounds(self):
        with pytest.raises(StudyError, match="only applies to saturate"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"mode": "sweep",
                                            "max_rate": 4.0}]})

    def test_alias_and_canonical_key_together_rejected(self):
        # "workloads" aliases to "patterns"; silently keeping one list
        # would halve the cells the author wrote
        with pytest.raises(StudyError, match="same axis"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"patterns": ["transpose"],
                                            "workloads": ["h264"]}]})

    def test_saturation_bounds_must_be_single_numbers(self):
        with pytest.raises(StudyError, match="min_rate must be a single "
                                             "number"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"mode": "saturate",
                                            "min_rate": [0.1, 0.2]}]})

    def test_unknown_mapping(self):
        with pytest.raises(StudyError, match="unknown mapping 'blok'.*did "
                                             "you mean 'block'"):
            Study.from_dict({"name": "s",
                             "scenarios": [{"mapping": "blok"}]})


class TestSerialization:
    def study(self) -> Study:
        return Study.from_dict({
            "name": "round-trip",
            "description": "two scenarios, both modes",
            "profile": "quick",
            "workers": 1,
            "scenarios": [
                {"name": "sweep", "topologies": ["mesh4x4"],
                 "routers": ["dor", "bsor-dijkstra"],
                 "patterns": ["transpose"], "rates": [0.5, 1.0],
                 "vcs": [2, 4]},
                {"name": "sat", "topologies": ["mesh4x4"],
                 "routers": ["dor"], "patterns": ["shuffle"],
                 "mode": "saturate", "max_rate": 4.0},
            ],
        })

    def test_dict_round_trip_is_stable(self):
        study = self.study()
        assert Study.from_dict(study.to_dict()) == study
        assert Study.from_dict(study.to_dict()).to_dict() == study.to_dict()

    def test_yaml_file_round_trip(self, tmp_path):
        study = self.study()
        path = study.to_file(tmp_path / "study.yaml")
        loaded = Study.from_file(path)
        assert loaded == study
        # to_file(from_file(x)) is byte-stable: a second save changes nothing
        second = loaded.to_file(tmp_path / "again.yaml")
        assert second.read_text() == path.read_text()

    def test_json_file_round_trip(self, tmp_path):
        study = self.study()
        path = study.to_file(tmp_path / "study.json")
        assert json.loads(path.read_text())["name"] == "round-trip"
        assert Study.from_file(path) == study

    def test_singular_and_comma_spellings_fold(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(
            "name: fold\n"
            "scenarios:\n"
            "  - topology: mesh4x4\n"
            "    router: dor, yx\n"
            "    workload: transpose\n"
        )
        study = Study.from_file(path)
        assert study.scenarios[0].topologies == ("mesh4x4",)
        assert study.scenarios[0].routers == ("dor", "yx")
        assert study.scenarios[0].patterns == ("transpose",)

    def test_file_errors_name_the_file(self, tmp_path):
        missing = tmp_path / "nope.yaml"
        with pytest.raises(StudyError, match="cannot read study file"):
            Study.from_file(missing)
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: [unclosed\n")
        with pytest.raises(StudyError, match="invalid YAML"):
            Study.from_file(bad)
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{")
        with pytest.raises(StudyError, match="invalid JSON"):
            Study.from_file(bad_json)

    def test_spec_error_carries_the_path(self, tmp_path):
        path = tmp_path / "typo.yaml"
        path.write_text("name: s\nscenarios:\n  - routrs: [dor]\n")
        with pytest.raises(StudyError, match="typo.yaml"):
            Study.from_file(path)


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.profile == "default"
        assert policy.cache is True
        assert policy.workers == 0

    def test_negative_workers_rejected(self):
        with pytest.raises(StudyError, match="workers"):
            ExecutionPolicy(workers=-1).validate()

    def test_scenario_defaults_validate(self):
        Scenario().validate()
