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

The output is a list of :class:`CompareCell` rows that
:mod:`repro.compare.report` renders as markdown or JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ExperimentError
from ..experiments.config import ExperimentConfig
from ..faults import FaultSet, RoutePlan
from ..metrics.statistics import SimulationStatistics
from ..planning import (  # parse_topology / pattern_flow_set: re-exported
    canonical_pattern,
    parse_topology,
    pattern_flow_set,
    plan_matrix,
)
from ..routing.registry import router_spec
from ..runner.engine import ExperimentRunner, RunnerReport, SweepSpec, runner_for
from .saturation import SaturationCriteria, SaturationResult, SaturationSearch


@dataclass
class CompareCell:
    """One row of the comparison matrix: one router on one workload.

    ``faults`` is the canonical label of the fault set the cell ran under
    (``"none"`` for the fault-free baseline) — the degradation report
    compares each faulty cell against its fault-free twin.
    """

    topology: str
    pattern: str
    router: str
    display_name: str
    max_channel_load: float
    average_hops: float
    saturation: SaturationResult
    low_load_latency: float
    p99_latency: float
    faults: str = "none"

    @property
    def saturation_rate(self) -> float:
        return self.saturation.saturation_rate

    @property
    def saturation_throughput(self) -> float:
        return self.saturation.throughput

    def to_row(self) -> Dict:
        """This cell as one flat, JSON-able result row.

        The row shape is shared by :meth:`CompareResult.result_set`, the
        JSON report and the study engine's saturate scenarios.
        """
        return {
            "topology": self.topology,
            "pattern": self.pattern,
            "router": self.router,
            "display_name": self.display_name,
            "faults": self.faults,
            "saturation_rate": self.saturation_rate,
            "saturated_within_range": self.saturation.saturated_within_range,
            "last_stable_rate": self.saturation.last_stable_rate,
            "saturation_throughput": self.saturation_throughput,
            "max_throughput": self.saturation.max_throughput,
            "low_load_latency": self.low_load_latency,
            "p99_latency": self.p99_latency,
            "max_channel_load": self.max_channel_load,
            "average_hops": self.average_hops,
            "invocations": self.saturation.invocations,
            "observations": [
                {
                    "offered_rate": observation.offered_rate,
                    "throughput": observation.throughput,
                    "average_latency": observation.average_latency,
                    "delivery_ratio": observation.delivery_ratio,
                    "saturated": observation.saturated,
                }
                for observation in self.saturation.observations
            ],
        }


@dataclass
class CompareResult:
    """All cells of one :meth:`CompareMatrix.run`, plus run bookkeeping."""

    cells: List[CompareCell]
    criteria: SaturationCriteria
    report: RunnerReport

    def cell(self, topology: str, pattern: str, router: str,
             faults: Optional[str] = None) -> CompareCell:
        router = router_spec(router).name
        pattern = canonical_pattern(pattern)
        topology = topology.strip().lower()
        label = None if faults is None else FaultSet.from_spec(faults).label()
        for candidate in self.cells:
            if (candidate.topology, candidate.pattern, candidate.router) != \
                    (topology, pattern, router):
                continue
            if label is None or candidate.faults == label:
                return candidate
        raise ExperimentError(
            f"no comparison cell ({topology}, {pattern}, {router}"
            + (f", faults={label}" if label is not None else "") + ")"
        )

    def groups(self) -> List[Tuple[Tuple[str, str], List[CompareCell]]]:
        """Cells grouped by (topology, pattern), preserving run order."""
        grouped: Dict[Tuple[str, str], List[CompareCell]] = {}
        for cell in self.cells:
            grouped.setdefault((cell.topology, cell.pattern), []).append(cell)
        return list(grouped.items())

    def total_invocations(self) -> int:
        return sum(cell.saturation.invocations for cell in self.cells)

    def result_set(self):
        """The cells as a tagged :class:`~repro.study.resultset.ResultSet`.

        One row per cell (see :meth:`CompareCell.to_row`); this is the shape
        :mod:`repro.compare.report` renders and the study engine tags into
        its combined result set.
        """
        from ..study.resultset import ResultSet

        return ResultSet([cell.to_row() for cell in self.cells])


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
            fault_sets: Optional[Sequence] = None) -> CompareResult:
        """Run the full (topology x pattern x router x fault set) comparison.

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
        return CompareResult(
            cells=[self._finish_cell(cell) for cell in cells],
            criteria=self.criteria,
            report=report,
        )

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

    def _finish_cell(self, cell: _Cell) -> CompareCell:
        result = cell.search.result()
        low_rate = self.criteria.min_rate
        low_stats = cell.statistics.get(low_rate)
        stable_stats = cell.statistics.get(result.last_stable_rate, low_stats)
        return CompareCell(
            **cell.tags,
            saturation=result,
            low_load_latency=(low_stats.average_latency if low_stats else 0.0),
            p99_latency=(stable_stats.latency_percentile(0.99)
                         if stable_stats else 0.0),
        )


def compare_routers(topologies: Sequence[str], patterns: Sequence[str],
                    routers: Sequence[str],
                    config: Optional[ExperimentConfig] = None,
                    criteria: Optional[SaturationCriteria] = None,
                    runner: Optional[ExperimentRunner] = None,
                    fault_sets: Optional[Sequence] = None,
                    ) -> CompareResult:
    """One-call convenience wrapper around :class:`CompareMatrix`."""
    matrix = CompareMatrix(config=config, criteria=criteria, runner=runner)
    return matrix.run(topologies, patterns, routers, fault_sets=fault_sets)
