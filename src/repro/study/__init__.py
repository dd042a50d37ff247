"""Declarative studies: one spec-driven front door to the evaluation plane.

The paper's contribution is only visible through *comparisons* — router x
topology x workload x injection-rate studies — and this package is the
single, composable way to describe and run them:

* :class:`Study` / :class:`Scenario` — a serializable experiment
  description: named scenarios spanning axis cross-products, plus an
  :class:`ExecutionPolicy` (profile, backend, workers, cache).  Load and
  save specs with :meth:`Study.from_file` / :meth:`Study.to_file`
  (YAML/JSON, schema-validated with did-you-mean errors), or build them
  fluently (``Study("sat").grid(routers=[...]).rates(0.05, 0.9,
  step=0.05)``);
* :meth:`Study.run` — one execution path through the parallel
  :class:`~repro.runner.engine.ExperimentRunner`, the
  :class:`~repro.compare.matrix.CompareMatrix` and the adaptive
  saturation search, returning a :class:`StudyResult`;
* :class:`ResultSet` — the first-class result container: tagged rows with
  filter/group/pivot/reduce and the package's one set of table writers
  (markdown, aligned text, HTML, JSON, CSV); what figures, tables,
  comparisons and studies all return and the ``python -m repro`` CLI
  prints.  :func:`degradation` is the retained-throughput-under-faults
  table every saturate report ends with.

Bundled example specs live under ``examples/studies/``; the spec reference
and cookbook is ``docs/study-guide.md``.  The CLI mirror is ``python -m
repro run study.yaml``.
"""

from .execute import (
    SATURATE_COLUMNS,
    SWEEP_COLUMNS,
    StudyResult,
    resolve_config,
    run_scenario,
    run_study,
    validate_pattern,
)
from .resultset import ResultSet, degradation
from .spec import MODES, PROFILES, ExecutionPolicy, Scenario, Study

__all__ = [
    "ExecutionPolicy",
    "MODES",
    "PROFILES",
    "ResultSet",
    "SATURATE_COLUMNS",
    "SWEEP_COLUMNS",
    "Scenario",
    "Study",
    "StudyResult",
    "degradation",
    "resolve_config",
    "run_scenario",
    "run_study",
    "validate_pattern",
]
