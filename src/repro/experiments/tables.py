"""Reproduction of the paper's MCL tables (Tables 6.1, 6.2 and 6.3).

* **Table 6.1** — minimum MCL found by BSOR-MILP on each of five acyclic
  CDGs (three turn models plus two ad hoc graphs) for every workload.
* **Table 6.2** — the same exploration with the BSOR-Dijkstra selector.
* **Table 6.3** — MCL of the baseline oblivious algorithms (XY, YX, ROMM,
  Valiant) against the best MCL found by BSOR-MILP and BSOR-Dijkstra.

A table is route selection only, so it is a set of route plans:
:data:`TABLES` is the table of tables, and :func:`run_table` walks
:func:`repro.planning.plan_matrix` (6.3 — the plans Figures 6-1 .. 6-6 also
simulate) or :func:`repro.planning.plan_per_cdg` (6.1 / 6.2 — one
single-CDG plan per column) into tagged
:class:`~repro.study.resultset.ResultSet` rows.  Given the runner's cache a
second run solves nothing.

The absolute per-column values depend on the axis conventions of the turn
models and on which ad hoc CDGs are drawn, so the paper's numbers are used
for *shape* comparison (which CDG family wins, what BSOR's advantage over
the baselines is), not for exact equality — see "One result path" in
docs/architecture.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..exceptions import ExperimentError
from ..planning import plan_matrix, plan_per_cdg
from ..study.resultset import ResultSet
from .config import ExperimentConfig
from .figures import PAPER_ROUTERS

#: The paper's Table 6.1 (BSOR-MILP, MB/s).
PAPER_TABLE_6_1: Dict[str, Dict[str, float]] = {
    "transpose": {"north-last": 175, "west-first": 175, "negative-first": 75,
                  "ad-hoc-1": 175, "ad-hoc-2": 75},
    "bit-complement": {"north-last": 100, "west-first": 100,
                       "negative-first": 150, "ad-hoc-1": 100, "ad-hoc-2": 150},
    "shuffle": {"north-last": 75, "west-first": 100, "negative-first": 75,
                "ad-hoc-1": 100, "ad-hoc-2": 100},
    "h264": {"north-last": 140.87, "west-first": 184.94,
             "negative-first": 120.4, "ad-hoc-1": 174.07, "ad-hoc-2": 140.87},
    "perf-modeling": {"north-last": 62.73, "west-first": 83.65,
                      "negative-first": 62.73, "ad-hoc-1": 95.04,
                      "ad-hoc-2": 83.65},
    "transmitter": {"north-last": 7.34, "west-first": 7.34,
                    "negative-first": 9.46, "ad-hoc-1": 10.52, "ad-hoc-2": 9.0},
}

#: The paper's Table 6.2 (BSOR-Dijkstra, MB/s).
PAPER_TABLE_6_2: Dict[str, Dict[str, float]] = {
    "transpose": {"north-last": 200, "west-first": 200, "negative-first": 75,
                  "ad-hoc-1": 250, "ad-hoc-2": 75},
    "bit-complement": {"north-last": 150, "west-first": 100,
                       "negative-first": 150, "ad-hoc-1": 200, "ad-hoc-2": 150},
    "shuffle": {"north-last": 100, "west-first": 100, "negative-first": 75,
                "ad-hoc-1": 100, "ad-hoc-2": 100},
    "h264": {"north-last": 238.44, "west-first": 240.8,
             "negative-first": 188.06, "ad-hoc-1": 268.74, "ad-hoc-2": 242.85},
    "perf-modeling": {"north-last": 104.55, "west-first": 83.65,
                      "negative-first": 83.65, "ad-hoc-1": 146.38,
                      "ad-hoc-2": 83.65},
    "transmitter": {"north-last": 9.1, "west-first": 10.5,
                    "negative-first": 9.1, "ad-hoc-1": 10.52, "ad-hoc-2": 10.6},
}

#: The paper's Table 6.3 (MCL by routing algorithm, MB/s).
PAPER_TABLE_6_3: Dict[str, Dict[str, float]] = {
    "transpose": {"XY": 175, "YX": 175, "ROMM": 150, "Valiant": 175,
                  "BSOR-MILP": 75, "BSOR-Dijkstra": 75},
    "bit-complement": {"XY": 100, "YX": 100, "ROMM": 300, "Valiant": 200,
                       "BSOR-MILP": 100, "BSOR-Dijkstra": 100},
    "shuffle": {"XY": 100, "YX": 100, "ROMM": 100, "Valiant": 175,
                "BSOR-MILP": 75, "BSOR-Dijkstra": 75},
    "h264": {"XY": 253.97, "YX": 364.73, "ROMM": 283.56, "Valiant": 254.31,
             "BSOR-MILP": 120.4, "BSOR-Dijkstra": 188.06},
    "perf-modeling": {"XY": 95.04, "YX": 146.38, "ROMM": 104.55,
                      "Valiant": 132.57, "BSOR-MILP": 62.73,
                      "BSOR-Dijkstra": 83.65},
    "transmitter": {"XY": 10.52, "YX": 10.6, "ROMM": 9.46, "Valiant": 22.36,
                    "BSOR-MILP": 7.34, "BSOR-Dijkstra": 9.1},
}


@dataclass(frozen=True)
class Table:
    """One MCL table of the evaluation chapter, as the plans it tabulates."""

    title: str
    routers: Tuple[str, ...]
    #: True: one column per paper CDG, the router planned on each alone
    #: (Tables 6.1 / 6.2); False: one column per router (Table 6.3).
    per_cdg: bool
    #: The paper's values, workload -> column -> MCL.
    paper: Dict[str, Dict[str, float]]


#: The six evaluation workloads, in the order the paper's tables list them:
#: three synthetic patterns, then the three profiled applications.
WORKLOAD_NAMES: Tuple[str, ...] = (
    "transpose", "bit-complement", "shuffle",
    "h264", "perf-modeling", "transmitter",
)

TABLES: Dict[str, Table] = {
    "6-1": Table("Table 6.1 - BSOR-MILP minimum MCL by acyclic CDG (MB/s)",
                 ("bsor-milp",), True, PAPER_TABLE_6_1),
    "6-2": Table("Table 6.2 - BSOR-Dijkstra minimum MCL by acyclic CDG "
                 "(MB/s)",
                 ("bsor-dijkstra",), True, PAPER_TABLE_6_2),
    "6-3": Table("Table 6.3 - Maximum channel load by routing algorithm "
                 "(MB/s)",
                 PAPER_ROUTERS, False, PAPER_TABLE_6_3),
}


def _lookup(number: str) -> Tuple[str, Table]:
    key = number.replace(".", "-")
    if key not in TABLES:
        raise ExperimentError(
            f"unknown table {number!r}; known: {list(TABLES)}"
        )
    return key, TABLES[key]


def run_table(number: str, config: Optional[ExperimentConfig] = None,
              workloads: Sequence[str] = WORKLOAD_NAMES, cache=None,
              observer=None) -> ResultSet:
    """Plan one table; returns one row per cell as a ``ResultSet``.

    Rows carry ``table``, ``pattern``, ``router``, ``display_name``, ``cdg``
    (Tables 6.1 / 6.2), ``max_channel_load`` (``None`` where a CDG admits no
    route set) and ``optimal``: ``False`` when a MILP solve behind the cell
    stopped before proving its minimum (``milp_time_limit``) or returned
    nothing, ``True`` when every solve was proven, ``None`` for a router
    that runs no solver.  *cache* (the runner's
    :class:`~repro.runner.cache.ResultCache`) and *observer* go to the
    planning walk.
    """
    key, table = _lookup(number)
    config = config or ExperimentConfig()
    mesh = [f"mesh{config.mesh_size}x{config.mesh_size}"]
    if table.per_cdg:
        cells = plan_per_cdg(mesh, workloads, table.routers, config,
                             cache=cache, observer=observer)
    else:
        cells = plan_matrix(mesh, workloads, table.routers, None, config,
                            cache=cache, observer=observer)
    rows = []
    for _, _, tags, plan in cells:
        if plan is None:
            optimal: Optional[bool] = False
        elif plan.solves:
            optimal = all(solve.optimal for solve in plan.solves.values())
        else:
            optimal = None
        rows.append({
            "table": key,
            **{column: tags[column] for column in
               ("pattern", "router", "display_name", "cdg")
               if column in tags},
            "max_channel_load": tags["max_channel_load"],
            "optimal": optimal,
        })
    return ResultSet(rows)


def render_table(number: str, results: ResultSet) -> str:
    """The text form of :func:`run_table`'s rows: ours/paper per cell.

    A cell whose MILP stopped at its time limit carries a ``*`` (and the
    table a one-line legend): what the solver had found, not a proven
    minimum.
    """
    _, table = _lookup(number)
    cells = []
    for row in results:
        column = row["cdg" if table.per_cdg else "display_name"]
        ours = row["max_channel_load"]
        theirs = table.paper.get(row["pattern"], {}).get(column)
        cells.append({
            "workload": row["pattern"],
            "column": f"{column} (ours/paper)",
            "cell": ("-" if ours is None else f"{ours:g}")
            + ("*" if ours is not None and row["optimal"] is False else "")
            + "/" + ("-" if theirs is None else f"{theirs:g}"),
        })
    text = ResultSet(cells).pivot("workload", "column", "cell") \
        .to_text(title=f"{table.title} (ours/paper)")
    if any("*" in cell["cell"] for cell in cells):
        text += ("\n* the MILP stopped at milp_time_limit: the best MCL it "
                 "had found, not a proven minimum")
    return text
