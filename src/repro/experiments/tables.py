"""Reproduction of the paper's MCL tables (Tables 6.1, 6.2 and 6.3).

* **Table 6.1** — minimum MCL found by BSOR-MILP on each of five acyclic
  CDGs (three turn models plus two ad hoc graphs) for every workload.
* **Table 6.2** — the same exploration with the BSOR-Dijkstra selector.
* **Table 6.3** — MCL of the baseline oblivious algorithms (XY, YX, ROMM,
  Valiant) against the best MCL found by BSOR-MILP and BSOR-Dijkstra.

The absolute per-column values depend on the axis conventions of the turn
models and on which ad hoc CDGs are drawn, so the `paper_reference` data is
used for *shape* comparison (which CDG family wins, what BSOR's advantage
over the baselines is), not for exact equality — see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..planning import plan_routes
from ..routing.bsor.framework import BSORRouting, CDGStrategy, paper_strategies
from ..runner.engine import ExperimentRunner, runner_for
from .config import ExperimentConfig
from .report import render_table
from .workloads import WORKLOAD_NAMES, build_mesh, workload_flow_set

#: Column labels of Tables 6.1 / 6.2 in the paper.
CDG_COLUMNS = ("north-last", "west-first", "negative-first", "ad-hoc-1", "ad-hoc-2")

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


@dataclass
class TableResult:
    """A reproduced table: per-workload rows of per-column MCL values."""

    name: str
    columns: List[str]
    values: Dict[str, Dict[str, Optional[float]]]
    paper_reference: Optional[Dict[str, Dict[str, float]]] = None

    def row(self, workload: str) -> Dict[str, Optional[float]]:
        return self.values[workload]

    def minimum(self, workload: str) -> Optional[float]:
        """Best (lowest) MCL of a workload across the columns."""
        present = [value for value in self.values[workload].values()
                   if value is not None]
        return min(present) if present else None

    def render(self) -> str:
        headers = ["workload"] + list(self.columns) + ["min"]
        rows = []
        for workload, row in self.values.items():
            rows.append([workload] + [row.get(column) for column in self.columns]
                        + [self.minimum(workload)])
        return render_table(headers, rows, title=self.name)

    def render_against_paper(self) -> str:
        if not self.paper_reference:
            return self.render()
        headers = ["workload"] + [f"{column} (ours/paper)"
                                  for column in self.columns]
        rows = []
        for workload, row in self.values.items():
            reference = self.paper_reference.get(workload, {})
            cells = [workload]
            for column in self.columns:
                ours = row.get(column)
                theirs = reference.get(column)
                ours_text = "-" if ours is None else f"{ours:g}"
                theirs_text = "-" if theirs is None else f"{theirs:g}"
                cells.append(f"{ours_text}/{theirs_text}")
            rows.append(cells)
        return render_table(headers, rows, title=f"{self.name} (ours/paper)")


# ----------------------------------------------------------------------
# Tables 6.1 and 6.2: per-CDG MCL exploration
# ----------------------------------------------------------------------
def _exploration_row(task) -> Dict[str, Optional[float]]:
    """One table row: explore every paper CDG for one workload.

    Module-level and driven by a picklable (selector, config, workload)
    task so the runner can fan workloads out across worker processes —
    the algorithms themselves hold lambdas and are rebuilt inside the
    worker rather than shipped.
    """
    selector, config, workload = task
    mesh = build_mesh(config)
    flow_set = workload_flow_set(workload, mesh, config)
    strategies: List[CDGStrategy] = paper_strategies()
    # The harness reports the paper's column labels; map the first three
    # strategies (turn models) and the two ad hoc seeds onto them.
    label_map = dict(zip([strategy.name for strategy in strategies],
                         CDG_COLUMNS))
    router = BSORRouting(
        selector=selector,
        strategies=strategies,
        hop_slack=config.hop_slack,
        milp_time_limit=config.milp_time_limit,
    )
    router.explore(mesh, flow_set)
    row: Dict[str, Optional[float]] = {}
    for entry in router.exploration:
        row[label_map.get(entry.strategy_name, entry.strategy_name)] = entry.mcl
    return row


def _exploration_table(selector: str, config: ExperimentConfig,
                       workloads: Sequence[str],
                       table_name: str,
                       paper_reference: Dict[str, Dict[str, float]],
                       runner: Optional[ExperimentRunner] = None,
                       ) -> TableResult:
    runner = runner or runner_for(config)
    names = list(workloads)
    rows = runner.map(_exploration_row,
                      [(selector, config, name) for name in names])
    return TableResult(
        name=table_name,
        columns=list(CDG_COLUMNS),
        values=dict(zip(names, rows)),
        paper_reference=paper_reference,
    )


def table_6_1(config: Optional[ExperimentConfig] = None,
              workloads: Sequence[str] = WORKLOAD_NAMES,
              runner: Optional[ExperimentRunner] = None) -> TableResult:
    """Table 6.1: minimum MCL per acyclic CDG under BSOR-MILP."""
    config = config or ExperimentConfig()
    return _exploration_table(
        "milp", config, workloads,
        "Table 6.1 - BSOR-MILP minimum MCL by acyclic CDG (MB/s)",
        PAPER_TABLE_6_1,
        runner=runner,
    )


def table_6_2(config: Optional[ExperimentConfig] = None,
              workloads: Sequence[str] = WORKLOAD_NAMES,
              runner: Optional[ExperimentRunner] = None) -> TableResult:
    """Table 6.2: minimum MCL per acyclic CDG under BSOR-Dijkstra."""
    config = config or ExperimentConfig()
    return _exploration_table(
        "dijkstra", config, workloads,
        "Table 6.2 - BSOR-Dijkstra minimum MCL by acyclic CDG (MB/s)",
        PAPER_TABLE_6_2,
        runner=runner,
    )


# ----------------------------------------------------------------------
# Table 6.3: MCL comparison across routing algorithms
# ----------------------------------------------------------------------
TABLE_6_3_COLUMNS = ("XY", "YX", "ROMM", "Valiant", "BSOR-MILP", "BSOR-Dijkstra")


def _algorithm_mcl_row(task) -> Dict[str, Optional[float]]:
    """One Table 6.3 row: MCL of every algorithm on one workload."""
    config, workload = task
    mesh = build_mesh(config)
    flow_set = workload_flow_set(workload, mesh, config)
    row: Dict[str, Optional[float]] = {}
    for column in TABLE_6_3_COLUMNS:
        plan = plan_routes(column, mesh, flow_set, config)
        row[column] = plan.route_set.max_channel_load()
    return row


def table_6_3(config: Optional[ExperimentConfig] = None,
              workloads: Sequence[str] = WORKLOAD_NAMES,
              runner: Optional[ExperimentRunner] = None) -> TableResult:
    """Table 6.3: MCL of every routing algorithm on every workload."""
    config = config or ExperimentConfig()
    runner = runner or runner_for(config)
    names = list(workloads)
    rows = runner.map(_algorithm_mcl_row,
                      [(config, name) for name in names])
    return TableResult(
        name="Table 6.3 - Maximum channel load by routing algorithm (MB/s)",
        columns=list(TABLE_6_3_COLUMNS),
        values=dict(zip(names, rows)),
        paper_reference=PAPER_TABLE_6_3,
    )
