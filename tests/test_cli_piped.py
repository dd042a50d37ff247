"""Regression tests for the CLI under pipes and redirection.

The classic failure: ``python -m repro list routers | head -3`` — head
closes the pipe after three lines, the interpreter raises
``BrokenPipeError`` when flushing stdout, and the command exits 120 with
a traceback.  The CLI must treat a closed stdout as a normal early exit
(code 0, no traceback), keep every human timing line on **stderr** so
redirecting stdout captures pure data, and emit ``--progress jsonl``
events on stderr without perturbing stdout by a single byte.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.progress import event_from_dict

REPO_ROOT = Path(__file__).parent.parent
SMOKE_STUDY = REPO_ROOT / "examples" / "studies" / "smoke.yaml"

pytest.importorskip("yaml")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away: every write/flush is EPIPE."""

    def write(self, text):
        raise BrokenPipeError("broken pipe")

    def flush(self):
        raise BrokenPipeError("broken pipe")


class TestBrokenPipeInProcess:
    def test_list_routers_into_closed_stdout_exits_zero(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert repro_main(["list", "routers"]) == 0

    def test_closed_stdout_at_final_flush_exits_zero(self, monkeypatch):
        # writes buffered fine, but the main()-boundary flush hits EPIPE
        class FlushOnlyPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError("broken pipe")

        monkeypatch.setattr(sys, "stdout", FlushOnlyPipe())
        assert repro_main(["list", "routers"]) == 0


@pytest.mark.slow
class TestBrokenPipeSubprocess:
    """The real thing: a shell pipeline whose reader exits early."""

    def _shell(self, pipeline):
        env = dict(os.environ, PYTHONPATH="src")
        return subprocess.run(
            ["sh", "-c", pipeline.format(python=sys.executable)],
            cwd=REPO_ROOT, text=True, capture_output=True, env=env,
        )

    def test_list_routers_head_exits_zero(self):
        proc = self._shell(
            "{python} -m repro list routers | head -3; exit $?")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr

    def test_list_routers_true_swallows_everything(self):
        # `| true` closes the pipe before the writer even starts
        proc = self._shell(
            "{python} -m repro list routers | true; exit $?")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr


class TestStdoutPurity:
    """Human chrome on stderr; stdout is data and only data."""

    def _sweep_args(self, extra=()):
        return ["sweep", "--profile", "quick", "--workload", "transpose",
                "--algorithms", "dor", "--rates", "2.0", "--no-cache",
                *extra]

    def test_timing_summary_is_on_stderr(self, capsys):
        assert repro_main(self._sweep_args()) == 0
        captured = capsys.readouterr()
        assert "1 points, 1 simulated, 0 cached" in captured.err
        assert "points," not in captured.out

    def test_jsonl_progress_leaves_stdout_byte_identical(self, capsys):
        assert repro_main(self._sweep_args(["--progress", "quiet"])) == 0
        quiet = capsys.readouterr().out
        assert repro_main(self._sweep_args(["--progress", "jsonl"])) == 0
        captured = capsys.readouterr()
        assert captured.out == quiet

    def test_jsonl_progress_lines_all_parse(self, capsys):
        assert repro_main(self._sweep_args(["--progress", "jsonl"])) == 0
        err_lines = capsys.readouterr().err.splitlines()
        events = [event_from_dict(json.loads(line)) for line in err_lines
                  if line.startswith("{")]
        kinds = [event.kind for event in events]
        # planning comes first and is uncached here (--no-cache)
        plans = [kind for kind in kinds if kind.startswith("plan_")]
        assert plans and set(plans) == {"plan_solved"}
        assert kinds[:len(plans)] == plans
        assert kinds[len(plans)] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        assert "point_finished" in kinds

    def test_run_study_jsonl_events_parse(self, capsys):
        assert repro_main(["run", str(SMOKE_STUDY), "--backend", "fast",
                           "--no-cache", "--format", "json",
                           "--progress", "jsonl"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is still pure JSON
        events = [event_from_dict(json.loads(line))
                  for line in captured.err.splitlines()
                  if line.startswith("{")]
        assert any(event.kind == "sweep_finished" for event in events)
