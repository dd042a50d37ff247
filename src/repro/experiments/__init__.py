"""Experiment harness: regenerate every table and figure of the evaluation.

Figures are sweep scenarios (:data:`FIGURES`, :func:`run_figure`) executed by
the study engine; tables are route plans (:data:`TABLES`, :func:`run_table`)
walked by :mod:`repro.planning`.  Both return tagged
:class:`~repro.study.resultset.ResultSet` rows and have a ``render_*``
function for the text the paper prints.  A figure takes an optional
``runner`` (an :class:`repro.runner.ExperimentRunner`; without one the
points run serially and uncached); a table takes the runner's ``cache``.
The :class:`ExperimentConfig` holds only what decides a result — how a run
executes is the runner's.
"""

from .config import SYNTHETIC_FLOW_DEMAND, ExperimentConfig
from .figures import (
    FIGURES,
    Figure,
    render_curves,
    render_figure,
    run_figure,
)
from .tables import (
    PAPER_TABLE_6_1,
    PAPER_TABLE_6_2,
    PAPER_TABLE_6_3,
    TABLES,
    WORKLOAD_NAMES,
    Table,
    render_table,
    run_table,
)

__all__ = [
    "ExperimentConfig",
    "FIGURES",
    "Figure",
    "PAPER_TABLE_6_1",
    "PAPER_TABLE_6_2",
    "PAPER_TABLE_6_3",
    "SYNTHETIC_FLOW_DEMAND",
    "TABLES",
    "Table",
    "WORKLOAD_NAMES",
    "render_curves",
    "render_figure",
    "render_table",
    "run_figure",
    "run_table",
]
