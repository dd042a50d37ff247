"""Tests for the unified CLI (:mod:`repro.cli`).

Covers the golden help text, the uniform exit-code policy (0 ok / 2 usage /
1 failure), the ``list`` and ``validate`` subcommands, an end-to-end
``run examples/studies/smoke.yaml``, and shared options given before the
subcommand.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.runner.cache import ResultCache

GOLDEN_DIR = Path(__file__).parent / "golden"
EXAMPLES = Path(__file__).parent.parent / "examples" / "studies"

yaml = pytest.importorskip("yaml")


def _normalize(text: str) -> str:
    """Collapse whitespace so argparse wrapping differences don't matter."""
    return " ".join(text.split())


class TestHelpGolden:
    def test_top_level_help_matches_golden(self, capsys):
        assert repro_main(["--help"]) == 0
        rendered = capsys.readouterr().out
        golden = GOLDEN_DIR / "repro_help.txt"
        if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
            golden.write_text(rendered)
        assert golden.exists(), (
            f"golden fixture {golden} missing; regenerate with "
            f"REPRO_UPDATE_GOLDEN=1"
        )
        assert _normalize(rendered) == _normalize(golden.read_text())

    def test_every_subcommand_is_advertised(self, capsys):
        repro_main(["--help"])
        out = capsys.readouterr().out
        for command in ("run", "compare", "figure", "table", "sweep",
                        "saturate", "cache", "profile", "list", "validate",
                        "serve", "worker", "submit"):
            assert command in out


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        assert repro_main(["list", "routers"]) == 0
        capsys.readouterr()

    def test_usage_error_is_two(self, capsys):
        assert repro_main(["no-such-command"]) == 2
        assert repro_main([]) == 2
        assert repro_main(["list", "gadgets"]) == 2  # bad choice
        assert repro_main(["figure"]) == 2  # missing argument
        capsys.readouterr()

    def test_bad_option_value_is_two(self, capsys):
        code = repro_main(["sweep", "--workload", "transpose",
                           "--algorithms", "XY", "--rates", "fast",
                           "--profile", "quick"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_execution_failure_is_one_with_hint(self, capsys):
        assert repro_main(["sweep", "--workload", "transposs",
                           "--profile", "quick", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown workload" in err
        assert repro_main(["run", str(EXAMPLES / "missing.yaml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_workload_carries_a_did_you_mean(self, capsys):
        assert repro_main(["sweep", "--workload", "transposs",
                           "--profile", "quick", "--no-cache"]) == 1
        assert "did you mean 'transpose'" in capsys.readouterr().err

    def test_fixed_workload_figure_rejects_workload(self, capsys):
        # figures 6-1 .. 6-6 used to ignore --workload silently
        assert repro_main(["figure", "6-1", "--workload", "h264",
                           "--profile", "quick", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "'transpose'" in err
        assert repro_main(["figure", "6-8", "--workload", "h264",
                           "--profile", "quick", "--workers", "1",
                           "--no-cache"]) == 0
        assert capsys.readouterr().out.startswith("Figure 6-8 (h264)")

    def test_unknown_backend_is_one_with_did_you_mean(self, capsys):
        code = repro_main(["sweep", "--backend", "fsat", "--no-cache",
                           "--profile", "quick", "--rates", "0.5"])
        assert code == 1
        assert "did you mean 'fast'" in capsys.readouterr().err


class TestListSubcommand:
    @pytest.mark.parametrize("kind, needle", [
        ("routers", "bsor-dijkstra"),
        ("workloads", "decoder-pipeline"),
        ("backends", "[default]"),
        ("patterns", "bit-complement"),
    ])
    def test_kinds(self, capsys, kind, needle):
        assert repro_main(["list", kind]) == 0
        assert needle in capsys.readouterr().out

    def test_list_flags_match_list_subcommand(self, capsys):
        repro_main(["list", "routers"])
        via_subcommand = capsys.readouterr().out
        repro_main(["compare", "--list-routers"])
        via_flag = capsys.readouterr().out
        assert via_subcommand == via_flag

    def test_one_handler_serves_the_list_flags_everywhere(self, capsys):
        repro_main(["list", "backends"])
        listing = capsys.readouterr().out
        for argv in (["saturate", "--list-backends"],
                     ["compare", "--list-backends"],
                     ["run", "no-such-study.yaml", "--list-backends"]):
            assert repro_main(argv) == 0
            assert capsys.readouterr().out == listing

    def test_sweep_list_workloads_flag(self, capsys):
        assert repro_main(["sweep", "--list-workloads"]) == 0
        assert "registered application workloads" in capsys.readouterr().out

    def test_common_list_backends_flag(self, capsys):
        assert repro_main(["figure", "6-1", "--list-backends"]) == 0
        assert "reference" in capsys.readouterr().out

    def test_list_flags_work_without_positionals(self, capsys):
        # the figure/table/cache positionals are optional so the advertised
        # --list-* flags work on their own ...
        assert repro_main(["figure", "--list-workloads"]) == 0
        assert "registered application workloads" in capsys.readouterr().out
        # ... but omitting both the positional and a list flag is usage
        assert repro_main(["figure"]) == 2
        assert "missing the number" in capsys.readouterr().err
        assert repro_main(["cache"]) == 2
        assert "info, stats or clear" in capsys.readouterr().err


class TestBatchBackendCli:
    """The batch backend through the front door: list metadata, sweep /
    compare / run acceptance, and the pinned no-numpy error text."""

    def test_list_backends_shows_batch_metadata(self, capsys):
        assert repro_main(["list", "backends"]) == 0
        out = capsys.readouterr().out
        line = next(line for line in out.splitlines()
                    if line.strip().startswith("batch"))
        assert "Vectorized" in line
        assert "aliases: vectorized, numpy" in line
        assert "[batches sweeps]" in line

    def test_sweep_backend_batch_matches_fast(self, capsys):
        argv = ["sweep", "--workload", "transpose", "--algorithms", "XY",
                "--rates", "0.5,1.5", "--profile", "quick", "--workers",
                "1", "--no-cache"]
        assert repro_main([*argv, "--backend", "fast"]) == 0
        fast = capsys.readouterr()
        assert repro_main([*argv, "--backend", "batch"]) == 0
        batch = capsys.readouterr()
        # stdout is byte-identical: the "[... 0.0s]" run summary is
        # bookkeeping and lives on stderr ...
        assert batch.out == fast.out
        # ... which is where the batched dispatch shows its work
        assert "batched group(s)" in batch.err
        assert "batched group(s)" not in fast.err

    def test_compare_accepts_batch_backend(self, capsys):
        code = repro_main(["--profile", "quick", "--workers", "1",
                           "--no-cache", "compare", "--backend", "batch",
                           "--topology", "mesh4x4",
                           "--patterns", "transpose", "--routers", "dor",
                           "--max-rate", "1", "--resolution", "0.5"])
        assert code == 0
        assert "mesh4x4 / transpose (saturate)" in capsys.readouterr().out

    def test_run_study_accepts_batch_backend(self, capsys):
        assert repro_main(["run", str(EXAMPLES / "smoke.yaml"),
                           "--no-cache", "--backend", "batch"]) == 0
        captured = capsys.readouterr()
        assert "# Study: smoke" in captured.out
        assert "2 points, 2 simulated" in captured.err

    def test_no_numpy_error_matches_golden(self, capsys, monkeypatch):
        """Without numpy, ``--backend batch`` fails with the actionable
        install-or-switch message; its wording is pinned as a golden."""
        import repro.simulator.batchsim as batchsim

        monkeypatch.setattr(batchsim, "np", None)
        code = repro_main(["sweep", "--workload", "transpose",
                           "--algorithms", "XY", "--rates", "0.5",
                           "--backend", "batch", "--profile", "quick",
                           "--workers", "1", "--no-cache"])
        assert code == 1
        err = capsys.readouterr().err
        golden = GOLDEN_DIR / "batch_no_numpy.txt"
        if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
            golden.write_text(err if err.endswith("\n") else err + "\n")
        assert golden.exists(), (
            f"golden fixture {golden} missing; regenerate with "
            f"REPRO_UPDATE_GOLDEN=1"
        )
        assert _normalize(err) == _normalize(golden.read_text())
        assert "pip install numpy" in err
        assert "--backend fast" in err


class TestValidateSubcommand:
    def test_all_bundled_examples_validate(self, capsys):
        specs = sorted(str(path) for path in EXAMPLES.glob("*.yaml"))
        assert len(specs) >= 3
        assert repro_main(["validate", *specs]) == 0
        out = capsys.readouterr().out
        assert out.count("ok:") == len(specs)

    def test_invalid_spec_fails_with_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: s\nscenarios:\n  - routers: [dro]\n")
        assert repro_main(["validate", str(bad)]) == 1
        assert "did you mean" in capsys.readouterr().err

    def test_misspelled_faults_key_error_matches_golden(self, tmp_path,
                                                        capsys):
        """The full did-you-mean error for a misspelled ``faults:`` key is
        pinned as a golden: it is the first thing a fault-study author sees
        when a spec is wrong, so its wording must not regress silently."""
        bad = tmp_path / "degraded.yaml"
        bad.write_text(
            "name: degraded\n"
            "scenarios:\n"
            "  - routers: [dor]\n"
            "    fautls: [none, 'link:0-1']\n")
        assert repro_main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err.replace(str(bad), "SPEC.yaml")
        golden = GOLDEN_DIR / "validate_faults_error.txt"
        if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
            golden.write_text(err if err.endswith("\n") else err + "\n")
        assert golden.exists(), (
            f"golden fixture {golden} missing; regenerate with "
            f"REPRO_UPDATE_GOLDEN=1"
        )
        assert _normalize(err) == _normalize(golden.read_text())
        assert "did you mean 'faults'" in err

    def test_bad_fault_entry_fails_validation(self, tmp_path, capsys):
        bad = tmp_path / "degraded.yaml"
        bad.write_text(
            "name: degraded\n"
            "scenarios:\n"
            "  - routers: [dor]\n"
            "    faults: ['wire:0-1']\n")
        assert repro_main(["validate", str(bad)]) == 1
        assert "wire:0-1" in capsys.readouterr().err


class TestRunSubcommand:
    def test_smoke_study_end_to_end(self, capsys):
        assert repro_main(["run", str(EXAMPLES / "smoke.yaml"),
                           "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "# Study: smoke" in captured.out
        assert "## smoke-sweep: mesh4x4 / transpose (sweep)" in captured.out
        assert "2 points, 2 simulated" in captured.err

    def test_faults_override_adds_the_axis(self, capsys):
        """--faults replaces every scenario's fault axis for one run."""
        assert repro_main(["run", str(EXAMPLES / "smoke.yaml"), "--no-cache",
                           "--faults", "none;link:5-6"]) == 0
        out = capsys.readouterr().out
        assert "| faults |" in out
        assert "link:5-6" in out

    def test_faults_override_is_validated(self, capsys):
        assert repro_main(["run", str(EXAMPLES / "smoke.yaml"), "--no-cache",
                           "--faults", "wire:5-6"]) == 1
        assert "wire:5-6" in capsys.readouterr().err

    def test_json_and_csv_formats(self, capsys):
        assert repro_main(["run", str(EXAMPLES / "smoke.yaml"),
                           "--no-cache", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["study"]["name"] == "smoke"
        assert len(payload["rows"]) == 2
        assert repro_main(["run", str(EXAMPLES / "smoke.yaml"),
                           "--no-cache", "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("scenario,mode,topology")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert repro_main(["run", str(EXAMPLES / "smoke.yaml"),
                           "--no-cache", "--output", str(target)]) == 0
        assert "# Study: smoke" in target.read_text()
        assert str(target) in capsys.readouterr().out

    def test_profile_override_wins_over_spec(self, capsys):
        # figure_6_7.yaml says profile default; --profile quick must win
        assert repro_main(["run", str(EXAMPLES / "smoke.yaml"),
                           "--no-cache", "--profile", "quick"]) == 0
        assert "Profile `quick`" in capsys.readouterr().out


class TestSaturateSubcommand:
    def test_single_cell_saturate(self, capsys):
        code = repro_main(["saturate", "--topology", "mesh4x4",
                           "--patterns", "transpose", "--routers", "dor",
                           "--profile", "quick", "--workers", "1",
                           "--no-cache", "--max-rate", "4",
                           "--resolution", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(saturate)" in out
        assert "saturation_rate" in out


class TestOptionsBeforeSubcommand:
    """Shared options are accepted on either side of the subcommand."""

    def test_runner_subcommand_accepts_options_first(self, capsys):
        assert repro_main(["cache", "info"]) == 0
        plain = capsys.readouterr().out
        assert repro_main(["--workers", "1", "cache", "info"]) == 0
        assert capsys.readouterr().out == plain

    def test_compare_accepts_common_options_before_subcommand(self, capsys):
        # shared options given before `compare` must not be clobbered by
        # subparser defaults (they carry SUPPRESS defaults for exactly
        # this reason)
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["--profile", "quick", "--workers", "3", "--no-cache",
             "compare", "--routers", "dor"])
        assert args.profile == "quick"
        assert args.workers == 3
        assert args.no_cache is True
        # and the full path runs end to end
        code = repro_main(["--profile", "quick", "--workers", "1",
                           "--no-cache", "compare",
                           "--topology", "mesh4x4",
                           "--patterns", "transpose", "--routers", "dor",
                           "--max-rate", "1", "--resolution", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mesh4x4 / transpose (saturate)" in out

    COMPARE = ["compare", "--profile", "quick", "--topology", "mesh4x4",
               "--patterns", "transpose", "--routers", "dor",
               "--workers", "1", "--max-rate", "1", "--resolution", "0.5"]

    def test_compare_honours_the_execution_backend(self, capsys):
        # compare's own options -> config block predated --execution and
        # dropped it: a misspelt backend ran locally and exited 0
        assert repro_main([*self.COMPARE, "--no-cache",
                           "--execution", "bogus"]) == 1
        assert "unknown execution backend 'bogus'" in capsys.readouterr().err

    def test_compare_honours_the_shared_cache_dir(self, tmp_path, capsys):
        local, shared = tmp_path / "local", tmp_path / "shared"
        assert repro_main([*self.COMPARE, "--cache-dir", str(local),
                           "--shared-cache-dir", str(shared)]) == 0
        capsys.readouterr()
        written = sorted(ResultCache(local).keys())
        assert written
        assert sorted(ResultCache(shared).keys()) == written

    def test_compare_failure_and_unknown_command_exit_codes(self, capsys):
        assert repro_main(["compare", "--routers", "nope",
                           "--profile", "quick", "--topology", "mesh4x4",
                           "--patterns", "transpose", "--no-cache"]) == 1
        assert "error:" in capsys.readouterr().err
        assert repro_main(["no-such-command"]) == 2
        capsys.readouterr()
