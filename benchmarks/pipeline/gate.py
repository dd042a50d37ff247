"""The correctness gate: every check feeds one attempted/failed ledger.

An operation fails if it raises, a served request is refused, a MILP solve
ends non-optimal (HiGHS status other than 0 covers the time limit), a planned
route set is not deadlock free, or a result document differs from its
required twin.  The harness counts operations as it performs them and calls
:meth:`Ledger.check` for every comparison.

:class:`PlanTap` is how the planner's work becomes visible from outside:
``run_study`` keeps route sets and solver diagnostics to itself, so the tap
rebinds the two functions they pass through and keeps references — no
timing, nothing else changes — and :meth:`PlanTap.verify` checks them after
the timed region has ended.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from spans import rebound

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record *what* when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok


class PlanTap:
    """Keeps every planned route set and MILP solution of a run."""

    def __init__(self) -> None:
        #: id(route_set) -> (route_set, phase_boundaries); the reference
        #: keeps the id from being reused.
        self.route_sets: Dict[int, Tuple[object, Optional[dict]]] = {}
        self.solutions: List[object] = []

    def _tap_sweep_many(self, sweep_many):
        def tapped(runner, specs):
            for spec in specs.values():
                self.route_sets.setdefault(
                    id(spec.route_set),
                    (spec.route_set, spec.phase_boundaries))
            return sweep_many(runner, specs)
        return tapped

    def _tap_select_routes(self, select_routes):
        def tapped(selector, flow_set):
            try:
                return select_routes(selector, flow_set)
            finally:
                # BSORRouting drops the selector (and its diagnostics)
                # as soon as this returns
                self.solutions.append(selector.last_solution)
        return tapped

    def installed(self):
        """Context manager: the tap is active inside the ``with`` block."""
        return rebound([
            ("repro.runner.engine", "ExperimentRunner.sweep_many",
             self._tap_sweep_many),
            ("repro.routing.bsor.milp", "MILPSelector.select_routes",
             self._tap_select_routes),
        ])

    def verify(self, ledger: Ledger) -> None:
        """Deadlock freedom of every route set, optimality of every solve."""
        from repro.routing.deadlock import analyze_virtual_networks

        ledger.check(bool(self.route_sets),
                     "no planned route set reached the runner")
        for route_set, boundaries in self.route_sets.values():
            report = analyze_virtual_networks(route_set, boundaries or {})
            ledger.check(
                report.deadlock_free,
                f"route set of {route_set.algorithm} on "
                f"{route_set.flow_set.name} is not deadlock free: "
                f"{report.detail}")
        for solution in self.solutions:
            ledger.check(
                solution is not None and solution.optimal,
                f"MILP solve ended non-optimal: "
                f"{getattr(solution, 'message', 'no solution')}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def library_versions() -> Dict[str, str]:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def check_reference(name: str, seed: int, document_digest: str,
                    ledger: Ledger) -> str:
    """Compare against ``reference/<name>.json``; returns the verdict.

    The recorded digest only binds when it was taken with this seed and
    these numpy/scipy versions (HiGHS may pick another optimal route set
    across versions).  Anything else is ``skipped`` — never a pass.
    """
    path = REFERENCE_DIR / f"{name}.json"
    try:
        reference = json.loads(path.read_text())
    except (OSError, ValueError):
        return "skipped"
    versions = library_versions()
    if reference.get("seed") != seed or any(
            reference.get(key) != value for key, value in versions.items()):
        return "skipped"
    ok = ledger.check(
        reference.get("sha256") == document_digest,
        f"result document of {name} differs from reference/{name}.json")
    return "match" if ok else "mismatch"


def write_reference(name: str, seed: int, document_digest: str) -> None:
    payload = {"seed": seed, **library_versions(), "sha256": document_digest}
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2) + "\n")
