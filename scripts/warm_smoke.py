#!/usr/bin/env python3
"""Warm means zero solves, through the real CLI (part of ``make smoke-cli``).

Runs each command of :data:`COMMANDS` — a small BSOR study
(``examples/studies/degraded.yaml``: dor, o1turn and bsor-dijkstra under
four fault sets on the 4x4 mesh), a faulted ``compare`` and ``table 6-1`` —
twice into one temporary ``--cache-dir`` with ``--progress jsonl`` and fails
unless

* the cold run solved its plans (``plan_solved`` events, every one stored)
  and, for a command that simulates, simulated;
* the warm run's stderr carries zero ``plan_solved`` events and zero
  ``point_finished`` events of a simulated point — every plan came out of
  the route-plan cache, every point out of the result cache;
* the warm run's stdout is byte-identical to the cold run's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
STUDY = REPO_ROOT / "examples" / "studies" / "degraded.yaml"

#: label -> (``python -m repro`` arguments, whether the command simulates).
COMMANDS = {
    "run degraded.yaml": (["run", str(STUDY)], True),
    "compare --faults": (
        ["compare", "--profile", "quick", "--topology", "mesh4x4",
         "--patterns", "transpose", "--routers", "dor,bsor-dijkstra",
         "--faults", "none;link:5-6"], True),
    "table 6-1": (["table", "6-1", "--profile", "quick"], False),
}


def fail(message: str) -> None:
    print(f"warm-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(arguments, cache_dir: str):
    """(stdout bytes, progress events) of one ``python -m repro`` run."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), environment.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "repro", *arguments, "--workers", "1",
         "--cache-dir", cache_dir, "--progress", "jsonl"],
        cwd=REPO_ROOT, env=environment, capture_output=True)
    if done.returncode != 0:
        fail(f"repro {arguments[0]} exited {done.returncode}: "
             f"{done.stderr.decode(errors='replace')[-500:]}")
    events = [json.loads(line) for line in done.stderr.decode().splitlines()
              if line.startswith("{")]
    return done.stdout, events


def count(events, kind: str, **fields) -> int:
    return sum(1 for event in events if event["event"] == kind and
               all(event.get(name) == value
                   for name, value in fields.items()))


def check(label: str, arguments, simulates: bool) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-warm-smoke-") as cache_dir:
        cold_out, cold = run(arguments, cache_dir)
        warm_out, warm = run(arguments, cache_dir)
    plans = count(cold, "plan_solved")
    if not plans:
        fail(f"{label}: the cold run solved no plan")
    if simulates and not count(cold, "point_finished", simulated=True):
        fail(f"{label}: the cold run simulated no point")
    if count(cold, "plan_solved", stored=True) != plans:
        fail(f"{label}: the cold run did not store every plan it solved")
    if count(warm, "plan_solved"):
        fail(f"{label}: the warm run solved "
             f"{count(warm, 'plan_solved')} plan(s)")
    if count(warm, "plan_cached") != plans:
        fail(f"{label}: the warm run answered {count(warm, 'plan_cached')} "
             f"of {plans} plan(s) from the cache")
    if count(warm, "point_finished", simulated=True):
        fail(f"{label}: the warm run simulated a point")
    if warm_out != cold_out:
        fail(f"{label}: the warm run's stdout differs from the cold run's")
    print(f"warm-smoke: ok: {label} ({plans} plan(s) solved cold, 0 warm; "
          f"{count(warm, 'cache_hit')} point(s) from the cache; stdout "
          f"byte-identical)")


def main() -> int:
    for label, (arguments, simulates) in COMMANDS.items():
        check(label, arguments, simulates)
    return 0


if __name__ == "__main__":
    sys.exit(main())
