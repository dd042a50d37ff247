"""Experiment harness: regenerate every table and figure of the evaluation.

Figures are sweep scenarios (:data:`FIGURES`, :func:`run_figure`) executed by
the study engine; tables tabulate route MCLs.  Both accept an optional
``runner`` argument (an :class:`repro.runner.ExperimentRunner`); without one
they build a runner from the configuration's ``workers`` / ``use_cache`` /
``cache_dir`` fields, which default to the serial, uncached seed behaviour.
"""

from .config import SYNTHETIC_FLOW_DEMAND, ExperimentConfig
from .figures import (
    FIGURES,
    Figure,
    render_curves,
    render_figure,
    run_figure,
)
from .report import (
    format_value,
    improvement_summary,
    render_table,
    runner_summary,
)
from .tables import (
    CDG_COLUMNS,
    PAPER_TABLE_6_1,
    PAPER_TABLE_6_2,
    PAPER_TABLE_6_3,
    TABLE_6_3_COLUMNS,
    TableResult,
    table_6_1,
    table_6_2,
    table_6_3,
)
from .workloads import (
    APPLICATION_WORKLOADS,
    SYNTHETIC_WORKLOADS,
    WORKLOAD_NAMES,
    extended_workload_names,
    all_workloads,
    build_mesh,
    workload_flow_set,
)

__all__ = [
    "APPLICATION_WORKLOADS",
    "CDG_COLUMNS",
    "ExperimentConfig",
    "FIGURES",
    "Figure",
    "PAPER_TABLE_6_1",
    "PAPER_TABLE_6_2",
    "PAPER_TABLE_6_3",
    "SYNTHETIC_FLOW_DEMAND",
    "SYNTHETIC_WORKLOADS",
    "TABLE_6_3_COLUMNS",
    "TableResult",
    "WORKLOAD_NAMES",
    "extended_workload_names",
    "all_workloads",
    "build_mesh",
    "format_value",
    "improvement_summary",
    "render_curves",
    "render_figure",
    "render_table",
    "run_figure",
    "runner_summary",
    "table_6_1",
    "table_6_2",
    "table_6_3",
    "workload_flow_set",
]
