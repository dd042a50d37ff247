"""The comparison engine: (topology x pattern x router) through the runner.

:class:`CompareMatrix` is the first-class home of the paper's central,
comparative experiment — BSOR against the oblivious baselines across
topologies and traffic patterns.  For every cell of the cross-product it

1. plans the cell through :func:`repro.planning.plan_matrix`: the topology
   (``"mesh8x8"``-style specs), the traffic pattern (synthetic patterns by
   name/alias, or an application workload), the registered router and its
   static route set (offline metrics — maximum channel load, average hops —
   come straight from the routes);
2. runs the adaptive :class:`~repro.compare.saturation.SaturationSearch`
   instead of a dense rate sweep.  All unfinished cells propose their next
   offered rate each round and the whole round is submitted to the
   :class:`~repro.runner.engine.ExperimentRunner` as one batch, so the
   search stays adaptive *and* parallel — and every simulated point lands
   in the result cache, making warm re-runs near-free.

The output is one row per cell — the cell's tags, its saturation point,
latency columns, offline route metrics and the search's observations — as a
:class:`~repro.study.resultset.ResultSet`, the shape every other result in
the package has.  :func:`repro.study.execute.run_scenario` tags and projects
those rows for ``saturate`` scenarios, which is how ``python -m repro
compare`` and study files reach this engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ExperimentError
from ..experiments.config import ExperimentConfig
from ..faults import RoutePlan
from ..metrics.statistics import SimulationStatistics
from ..planning import (  # parse_topology / pattern_flow_set: re-exported
    parse_topology,
    pattern_flow_set,
    plan_matrix,
)
from ..runner.engine import ExperimentRunner, RunnerReport, SweepSpec, runner_for
from ..study.resultset import ResultSet
from .saturation import SaturationCriteria, SaturationSearch


@dataclass
class _Cell:
    """Internal per-cell state while the matrix is running."""

    #: the cell's canonical row tags (see :func:`repro.planning.plan_matrix`)
    tags: Dict
    plan: RoutePlan
    search: SaturationSearch
    #: offered rate -> simulated statistics, for the latency columns.
    statistics: Dict[float, SimulationStatistics] = field(default_factory=dict)


class CompareMatrix:
    """Fan a routing comparison across the parallel experiment runner.

    Parameters
    ----------
    config:
        Experiment scale (mesh demands, simulator cycle counts, seed,
        worker/cache settings).  Defaults to :class:`ExperimentConfig`.
    criteria:
        Saturation predicate and search range shared by every cell.
    runner:
        An existing :class:`ExperimentRunner`; built from *config* when
        omitted.
    observer:
        A :class:`~repro.progress.ProgressObserver` receiving the typed
        progress-event stream (attached to the runner — every round of
        one-point-per-cell batches emits through it).
    """

    def __init__(self, config: Optional[ExperimentConfig] = None,
                 criteria: Optional[SaturationCriteria] = None,
                 runner: Optional[ExperimentRunner] = None,
                 observer=None) -> None:
        self.config = config or ExperimentConfig()
        self.criteria = criteria or SaturationCriteria()
        self.runner = runner or runner_for(self.config)
        if observer is not None:
            self.runner.observer = observer

    # ------------------------------------------------------------------
    def run(self, topologies: Sequence[str], patterns: Sequence[str],
            routers: Sequence[str],
            fault_sets: Optional[Sequence] = None
            ) -> Tuple[ResultSet, RunnerReport]:
        """Run the full (topology x pattern x router x fault set) comparison.

        Returns ``(rows, report)``: one :class:`~repro.study.resultset.
        ResultSet` row per cell, in matrix order — the
        :func:`~repro.planning.plan_matrix` tags (``topology``, ``pattern``,
        ``router``, ``display_name``, ``faults``, ``max_channel_load``,
        ``average_hops``) plus ``saturation_rate``,
        ``saturated_within_range``, ``last_stable_rate``,
        ``saturation_throughput``, ``max_throughput``, ``low_load_latency``,
        ``p99_latency``, ``sim_points`` and the search's ``observations`` —
        and the :class:`~repro.runner.engine.RunnerReport` merged over every
        round.

        *fault_sets* is an optional fourth axis of fault specifications
        (anything :meth:`~repro.faults.FaultSet.from_spec` accepts); each
        entry degrades the topology and reroutes every router through
        :func:`~repro.faults.route_with_faults` (re-verifying deadlock
        freedom on the degraded routes) before the saturation search.
        Omitted or ``None`` runs the classic fault-free comparison.
        """
        cells = self._build_cells(topologies, patterns, routers, fault_sets)
        report = RunnerReport(workers=self.runner.workers)
        while True:
            batch: Dict[str, Tuple[_Cell, float]] = {}
            for index, cell in enumerate(cells):
                rate = cell.search.next_rate()
                if rate is not None:
                    batch[f"cell-{index}@{rate:g}"] = (cell, rate)
            if not batch:
                break
            specs = {
                key: SweepSpec(
                    cell.plan.topology, cell.plan.route_set,
                    self.config.simulation, [rate],
                    workload=cell.tags["pattern"],
                    phase_boundaries=cell.plan.phase_boundaries or None,
                    fault_schedule=cell.plan.schedule or None,
                )
                for key, (cell, rate) in batch.items()
            }
            results = self.runner.sweep_many(specs)
            report.merge(self.runner.last_report)
            for key, (cell, rate) in batch.items():
                stats = results[key].statistics[0]
                cell.statistics[rate] = stats
                cell.search.observe(rate, stats.throughput,
                                    stats.average_latency,
                                    stats.delivery_ratio)
        return ResultSet([self._row(cell) for cell in cells]), report

    # ------------------------------------------------------------------
    def _build_cells(self, topologies: Sequence[str], patterns: Sequence[str],
                     routers: Sequence[str],
                     fault_sets: Optional[Sequence] = None) -> List[_Cell]:
        if not topologies or not patterns or not routers:
            raise ExperimentError(
                "comparison needs at least one topology, pattern and router"
            )
        return [
            _Cell(tags=tags, plan=plan, search=SaturationSearch(self.criteria))
            for _, _, tags, plan in plan_matrix(
                topologies, patterns, routers, fault_sets, self.config,
                cache=self.runner.cache, observer=self.runner.observer)
        ]

    def _row(self, cell: _Cell) -> Dict:
        result = cell.search.result()
        low_stats = cell.statistics.get(self.criteria.min_rate)
        stable_stats = cell.statistics.get(result.last_stable_rate, low_stats)
        return {
            **cell.tags,
            "saturation_rate": result.saturation_rate,
            "saturated_within_range": result.saturated_within_range,
            "last_stable_rate": result.last_stable_rate,
            "saturation_throughput": result.throughput,
            "max_throughput": result.max_throughput,
            "low_load_latency": (low_stats.average_latency
                                 if low_stats else 0.0),
            "p99_latency": (stable_stats.latency_percentile(0.99)
                            if stable_stats else 0.0),
            "sim_points": result.invocations,
            # plain scalar dataclasses: vars() is asdict() without its deepcopy
            "observations": [dict(vars(observation))
                             for observation in result.observations],
        }
