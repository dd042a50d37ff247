"""The parallel experiment engine.

:class:`ExperimentRunner` is the evaluation plane of the reproduction: it
takes the same (topology, route set, configuration, offered rates) inputs as
:func:`repro.simulator.simulation.sweep_injection_rates` but

* fans independent simulation points out across a pool of worker processes
  (the execution backends of :mod:`repro.runner.backends`, configurable
  worker count);
* consults a content-addressed :class:`~repro.runner.cache.ResultCache`
  before simulating, so repeated benchmark runs and re-plotted figures skip
  the simulator entirely;
* assembles the results into :class:`SweepResult` / :class:`SweepCurve`
  objects, one per :class:`SweepSpec`.

Every sweep point is an independent cold-start simulation (the paper's
methodology), which is what makes the fan-out embarrassingly parallel and
the results bit-identical regardless of worker count: a seeded point
simulated in a worker process equals the same point simulated inline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..exceptions import SimulationError
from ..metrics.statistics import SimulationStatistics, SweepCurve, SweepPoint
from ..progress import ProgressObserver, emitter_for
from ..routing.base import RouteSet
from ..simulator.backends import backend_spec
from ..simulator.config import SimulationConfig
from ..simulator.simulation import SweepResult
from ..topology.base import Topology
from .backends import ExecutionTask, resolve_execution
from .cache import ResultCache
from .fingerprint import batch_group_key, simulation_cache_key

#: Environment variable selecting the default worker count.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Normalise a worker count: ``None``/``0`` means auto.

    Auto resolves to ``$REPRO_WORKERS`` when set, otherwise to the machine's
    CPU count.  Explicit counts are clamped to at least 1.
    """
    if workers:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise SimulationError(
                f"${WORKERS_ENV} must be an integer, got {env!r}"
            )
    return max(1, os.cpu_count() or 1)


def _group_payload(group):
    """One batched payload for a group of pending entries.

    The group members have equal :func:`batch_group_key` fingerprints, so
    any member's topology / routes / boundaries / faults are content
    identical to every other's; the first member stands in for all.
    """
    topology, route_set, _, _, boundaries, faults = group[0][3]
    points = [(payload[2], payload[3]) for _, _, _, payload in group]
    return (topology, route_set, points, boundaries, faults)


@dataclass
class SweepSpec:
    """One sweep the runner should perform (one curve of one figure).

    ``fault_schedule`` (a :class:`~repro.faults.FailureSchedule`, or
    ``None``) arms cycle-stamped link failures for every point of the
    sweep; non-empty schedules join the cache key, so degraded sweeps
    never collide with their fault-free twins.
    """

    topology: Topology
    route_set: RouteSet
    config: SimulationConfig
    offered_rates: Sequence[float]
    workload: str = ""
    phase_boundaries: Optional[Dict[str, int]] = None
    fault_schedule: Optional[object] = None


@dataclass
class RunnerReport:
    """Bookkeeping of one runner call, for logs and benchmark output."""

    points_total: int = 0
    points_simulated: int = 0
    cache_hits: int = 0
    workers: int = 1
    batch_groups: int = 0

    def merge(self, other: "RunnerReport") -> None:
        self.points_total += other.points_total
        self.points_simulated += other.points_simulated
        self.cache_hits += other.cache_hits
        self.batch_groups += other.batch_groups

    def describe(self) -> str:
        text = (f"{self.points_total} points, {self.points_simulated} "
                f"simulated, {self.cache_hits} cached, "
                f"{self.workers} worker(s)")
        if self.batch_groups:
            text += f", {self.batch_groups} batched group(s)"
        return text


class ExperimentRunner:
    """Parallel, cached driver for injection-rate sweeps.

    Parameters
    ----------
    workers:
        Worker process count.  ``1`` runs every point inline (no pool);
        ``None`` or ``0`` resolves via ``$REPRO_WORKERS`` / CPU count.
    cache:
        ``None`` disables caching.  A :class:`ResultCache` is used as is; a
        string / path creates one at that directory; ``True`` creates one at
        the default location (``$REPRO_CACHE_DIR`` or ``~/.cache/repro-bsor``).
    observer:
        A :class:`~repro.progress.ProgressObserver` receiving the typed
        event stream of every sweep (``None`` runs silent).  Also settable
        after construction via :attr:`observer` — the comparison matrix and
        the study engine attach theirs that way.
    execution:
        Where cache-miss tasks execute: ``None`` is the in-process
        ``local`` backend (the seed behaviour), a string resolves through
        the execution-backend registry (:mod:`repro.runner.backends` —
        ``"queue"`` selects the distributed file-backed work queue), and
        any object exposing ``run_tasks`` is used as is.
    """

    def __init__(self, workers: Optional[int] = 1,
                 cache: Union[ResultCache, str, os.PathLike, bool, None] = None,
                 observer: Optional[ProgressObserver] = None,
                 execution=None,
                 ) -> None:
        self.workers = resolve_workers(workers)
        if cache is True:
            self.cache: Optional[ResultCache] = ResultCache()
        elif cache in (None, False):
            self.cache = None
        elif isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        self.observer = observer
        self.execution = resolve_execution(execution)
        self.last_report = RunnerReport(workers=self.workers)
        self.total_report = RunnerReport(workers=self.workers)

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def simulate(self, topology: Topology, route_set: RouteSet,
                 config: SimulationConfig, offered_rate: float,
                 phase_boundaries: Optional[Dict[str, int]] = None,
                 fault_schedule=None,
                 ) -> SimulationStatistics:
        """One cache-aware simulation point, run inline."""
        spec = SweepSpec(topology, route_set, config, [offered_rate],
                         phase_boundaries=phase_boundaries,
                         fault_schedule=fault_schedule)
        return self.sweep_many({"point": spec})["point"].statistics[0]

    def sweep(self, topology: Topology, route_set: RouteSet,
              config: SimulationConfig, offered_rates: Sequence[float],
              workload: str = "",
              phase_boundaries: Optional[Dict[str, int]] = None,
              fault_schedule=None,
              ) -> SweepResult:
        """Drop-in parallel/cached replacement for ``sweep_injection_rates``."""
        spec = SweepSpec(topology, route_set, config, offered_rates,
                         workload=workload, phase_boundaries=phase_boundaries,
                         fault_schedule=fault_schedule)
        return self.sweep_many({"sweep": spec})["sweep"]

    def sweep_many(self, specs: Mapping[str, SweepSpec]
                   ) -> Dict[str, SweepResult]:
        """Run several sweeps as one flat batch of simulation points.

        This is the core of the engine: every (sweep, offered rate) pair is
        an independent task, so a figure's six algorithm curves and a VC
        sweep's per-VC-count runs all fill the same worker pool instead of
        executing curve by curve.
        """
        for key, spec in specs.items():
            if not spec.offered_rates:
                raise SimulationError(
                    f"sweep {key!r}: offered_rates must contain at least one rate"
                )
            if not spec.route_set.is_complete():
                missing = [flow.name for flow in spec.route_set.missing_flows()]
                raise SimulationError(
                    f"sweep {key!r}: route set is missing routes for flows: "
                    f"{missing}"
                )

        report = RunnerReport(workers=self.workers)
        emitter = emitter_for(self.observer)
        if emitter is not None:
            emitter.sweep_started(
                sum(len(spec.offered_rates) for spec in specs.values()),
                self.workers,
            )
        collected: Dict[str, List[Optional[SimulationStatistics]]] = {
            key: [None] * len(spec.offered_rates) for key, spec in specs.items()
        }
        pending = []  # (key, rate index, cache key, payload)
        for key, spec in specs.items():
            for index, rate in enumerate(spec.offered_rates):
                report.points_total += 1
                cache_key = None
                if self.cache is not None:
                    cache_key = simulation_cache_key(
                        spec.topology, spec.route_set, spec.config, rate,
                        spec.phase_boundaries,
                        fault_schedule=spec.fault_schedule,
                    )
                    cached = self.cache.get(cache_key)
                    if cached is not None:
                        collected[key][index] = cached
                        report.cache_hits += 1
                        if emitter is not None:
                            emitter.cache_hit(key, rate)
                        continue
                payload = (spec.topology, spec.route_set, spec.config,
                           rate, spec.phase_boundaries, spec.fault_schedule)
                pending.append((key, index, cache_key, payload))

        report.points_simulated = len(pending)
        if pending:
            self._run_pending(pending, collected, report, emitter)
        if emitter is not None:
            emitter.sweep_finished(report.points_total,
                                   report.points_simulated,
                                   report.cache_hits,
                                   batch_groups=report.batch_groups)
        self.last_report = report
        self.total_report.merge(report)
        if self.cache is not None:
            self.cache.record_run(report)

        results: Dict[str, SweepResult] = {}
        for key, spec in specs.items():
            curve = SweepCurve(
                algorithm=spec.route_set.algorithm or "routes",
                workload=spec.workload or spec.route_set.flow_set.name,
            )
            statistics: List[SimulationStatistics] = []
            for rate, stats in zip(spec.offered_rates, collected[key]):
                assert stats is not None
                statistics.append(stats)
                curve.add_point(SweepPoint(
                    offered_rate=rate,
                    throughput=stats.throughput,
                    average_latency=stats.average_latency,
                    delivery_ratio=stats.delivery_ratio,
                ))
            results[key] = SweepResult(curve=curve, statistics=statistics,
                                       route_set=spec.route_set)
        return results

    # ------------------------------------------------------------------
    def _plan_pending(self, pending):
        """Split cache-miss points into scalar tasks and batchable groups.

        A point whose resolved backend advertises ``supports_batching``
        joins the group of every other such point with the same
        :func:`batch_group_key` (same topology, routes, boundaries, faults
        and configuration modulo the lane-variable fields); each group
        becomes one vectorized :func:`simulate_route_set_batch` call.
        Grouping and lane order follow the deterministic pending order and
        content-addressed keys, never object identity, so results are
        bit-identical for any worker count and ``PYTHONHASHSEED``.
        """
        scalar = []
        groups: Dict[str, list] = {}
        for entry in pending:
            topology, route_set, config, _, boundaries, faults = entry[3]
            try:
                spec = backend_spec(config.backend)
            except SimulationError:
                # unknown backend: keep the scalar path's error message
                scalar.append(entry)
                continue
            if not spec.supports_batching:
                scalar.append(entry)
                continue
            group = batch_group_key(topology, route_set, config, boundaries,
                                    fault_schedule=faults)
            groups.setdefault(group, []).append(entry)
        return scalar, list(groups.items())

    def _record(self, collected, entries, stats_list, emitter=None) -> None:
        for (key, index, cache_key, payload), stats in zip(entries, stats_list):
            collected[key][index] = stats
            if self.cache is not None and cache_key is not None:
                self.cache.put(cache_key, stats)
            if emitter is not None:
                emitter.point_finished(key, payload[3])

    def _run_pending(self, pending, collected, report, emitter) -> None:
        scalar, groups = self._plan_pending(pending)
        report.batch_groups = len(groups)
        if emitter is not None:
            for key, _, _, payload in scalar:
                emitter.point_started(key, payload[3])
            for group_key, entries in groups:
                emitter.batch_group(group_key, len(entries))
        tasks: List[ExecutionTask] = [
            ExecutionTask(kind="scalar", payload=entry[3], entries=[entry],
                          cache_keys=[entry[2]])
            for entry in scalar
        ]
        tasks.extend(
            ExecutionTask(kind="batch", payload=_group_payload(group),
                          entries=group,
                          cache_keys=[entry[2] for entry in group])
            for _, group in groups
        )

        def record(task: ExecutionTask, stats_list) -> None:
            self._record(collected, task.entries, stats_list, emitter)

        # how is the backend's choice (inline, process pool, work queue);
        # recording and caching stay here so every backend shares the
        # record-on-landing durability and the emitter's event stream
        self.execution.run_tasks(tasks, record, workers=self.workers)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        cache_text = (self.cache.describe() if self.cache is not None
                      else "cache disabled")
        return (f"ExperimentRunner(workers={self.workers}, {cache_text}, "
                f"last run: {self.last_report.describe()})")


def runner_for(config, observer: Optional[ProgressObserver] = None
               ) -> ExperimentRunner:
    """Build the runner an :class:`ExperimentConfig` asks for.

    Reads the config's ``workers`` / ``use_cache`` / ``cache_dir`` /
    ``shared_cache_dir`` / ``execution`` / ``queue_dir`` fields (absent
    fields default to serial, uncached, local execution — the seed
    behaviour), so existing call sites that pass a plain configuration keep
    working.  An *observer* receives the runner's progress-event stream.
    """
    workers = getattr(config, "workers", 1)
    use_cache = getattr(config, "use_cache", False)
    cache_dir = getattr(config, "cache_dir", None)
    shared_cache_dir = getattr(config, "shared_cache_dir", None)
    cache: Union[ResultCache, str, bool, None]
    if not use_cache:
        cache = None
    elif cache_dir or shared_cache_dir:
        cache = ResultCache(cache_dir, shared_dir=shared_cache_dir)
    else:
        cache = True
    execution = getattr(config, "execution", None)
    if isinstance(execution, str):
        execution = resolve_execution(
            execution, queue_dir=getattr(config, "queue_dir", None))
    return ExperimentRunner(workers=workers, cache=cache, observer=observer,
                            execution=execution)
