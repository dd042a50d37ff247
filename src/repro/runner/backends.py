"""The execution-backend registry: where a runner's cache misses execute.

:class:`~repro.runner.engine.ExperimentRunner` plans a sweep into tasks —
scalar points plus vectorized batch groups — and hands the list to an
**execution backend** to run.  The backend is a pluggable, named choice on
the shared :class:`repro.registry.Registry` core, exactly like simulator
kernels (:mod:`repro.simulator.backends`) and routing algorithms
(:mod:`repro.routing.registry`): canonical slugs, aliases, duplicate
rejection, did-you-mean errors, docs metadata.

Two backends ship:

* ``local`` (default) — the in-process pool: tasks run inline for one
  worker (no process pool is ever created — clean tracebacks, fast tests)
  or fan out over a ``ProcessPoolExecutor`` otherwise.  This is the seed
  behaviour, now behind the registry seam.
* ``queue`` — the distributed path: tasks are serialised into a durable
  file-backed :class:`~repro.runner.workqueue.WorkQueue` that any number of
  ``python -m repro worker`` processes on one or many hosts drain; the
  submitter polls for results, reclaims stale leases, and can optionally
  spawn local worker subprocesses for self-contained runs.

The execution-backend contract
------------------------------

A backend exposes one method::

    run_tasks(tasks, record, workers=1) -> None

*tasks* is a list of :class:`ExecutionTask`; *record* is a callback the
backend must invoke as ``record(task, statistics_list)`` **as each task
completes** (so a late failure cannot discard completed work — every
recorded result is already cached); *workers* is the runner's resolved
worker count.  The first task failure is raised as
:class:`~repro.exceptions.SimulationError` after surviving results are
recorded.  Backends must preserve the runner's bit-identity guarantee:
``record`` receives exactly the statistics an inline run would produce,
because every task is an independent, seeded, cold-start simulation.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..exceptions import SimulationError
from ..metrics.statistics import SimulationStatistics
from ..registry import Registry, Spec
from ..simulator.simulation import simulate_route_set, simulate_route_set_batch
from .workqueue import DEFAULT_LEASE_TIMEOUT, WorkQueue

#: Environment variable naming the default queue directory for the ``queue``
#: execution backend and ``python -m repro worker``.
QUEUE_DIR_ENV = "REPRO_QUEUE_DIR"

#: The execution backend used when nothing names one.
DEFAULT_EXECUTION = "local"


@dataclass
class ExecutionTask:
    """One schedulable unit of a planned sweep.

    ``kind`` is ``"scalar"`` (payload: one ``(topology, route_set, config,
    offered_rate, phase_boundaries, fault_schedule)`` point) or ``"batch"``
    (payload: one ``(topology, route_set, points, phase_boundaries,
    fault_schedule, kernel)`` vectorized group, *kernel* the batching
    backend's name, so no worker resolves it from an unset configuration).
    ``entries`` carries the runner's pending-entry bookkeeping straight
    through to the ``record`` callback; ``cache_keys`` lists the
    content-addressed key of every statistic the task produces (``None``
    entries when caching is off), in result order.
    """

    kind: str
    payload: tuple
    entries: list = field(default_factory=list)
    cache_keys: List[Optional[str]] = field(default_factory=list)


#: The ``record`` callback type backends invoke per completed task.
RecordCallback = Callable[[ExecutionTask, List[SimulationStatistics]], None]


def run_task(kind: str, payload: tuple) -> List[SimulationStatistics]:
    """Execute one task payload; always returns a list of statistics.

    Module level so it pickles by reference into pool workers, and shared
    with :mod:`repro.runner.worker` so queue workers run exactly the same
    code the local pool does — the foundation of the byte-identity
    guarantee between the ``local`` and ``queue`` backends.
    """
    if kind == "scalar":
        topology, route_set, config, rate, boundaries, faults = payload
        return [simulate_route_set(
            topology, route_set, config, rate,
            phase_boundaries=boundaries, fault_schedule=faults,
        )]
    if kind == "batch":
        topology, route_set, points, boundaries, faults, kernel = payload
        return simulate_route_set_batch(
            topology, route_set, points,
            phase_boundaries=boundaries, backend=kernel,
            fault_schedule=faults,
        )
    raise SimulationError(f"unknown execution task kind {kind!r}")


def _run_task_tuple(task: Tuple[str, tuple]) -> List[SimulationStatistics]:
    """Pool-side entry point (single picklable argument)."""
    return run_task(task[0], task[1])


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionBackendSpec(Spec):
    """One registered execution backend: a :class:`~repro.registry.Spec`
    whose factory takes the options one CLI option set offers every
    backend (``queue_dir``, ``spawn_workers``, ...) and keeps its own.

    Attributes
    ----------
    mechanism:
        A paragraph describing where and how tasks run (docs source).
    """

    mechanism: str = ""


_EXECUTIONS: Registry[ExecutionBackendSpec] = Registry(
    ExecutionBackendSpec, kind="execution backend",
    plural="execution backends", noun="execution backend name",
    error=SimulationError,
)

#: ``@register_execution_backend(name, display_name=, aliases=, summary=,
#: mechanism=)`` — :meth:`Registry.register` on a backend class.
register_execution_backend = _EXECUTIONS.register
#: Canonical names of every registered backend, in registration order.
available_executions = _EXECUTIONS.names
#: Every registered :class:`ExecutionBackendSpec`, in registration order.
execution_specs = _EXECUTIONS.specs
#: Look a spec up by canonical name, alias or display name.
execution_spec = _EXECUTIONS.lookup


def resolve_execution(execution=None, **options):
    """The backend object a runner should use.

    ``None`` means the default (``local``); a string resolves through the
    registry (*options* forwarded to the factory, unknown ones dropped);
    anything already exposing ``run_tasks`` is used as is.
    """
    if execution is None:
        execution = DEFAULT_EXECUTION
    if isinstance(execution, str):
        return _EXECUTIONS.create(execution, **options)
    if hasattr(execution, "run_tasks"):
        return execution
    raise SimulationError(
        f"execution backend must be a registered name or expose run_tasks, "
        f"got {type(execution).__name__}"
    )


# ----------------------------------------------------------------------
# the built-in backends
# ----------------------------------------------------------------------
@register_execution_backend(
    "local",
    display_name="Local",
    aliases=("pool", "in-process"),
    summary="In-process execution: inline for one worker (no process pool "
            "is created), ProcessPoolExecutor fan-out otherwise.",
    mechanism=(
        "Tasks run in the submitting process when workers=1 or there is a "
        "single task — pure in-process execution with clean tracebacks and "
        "no pool startup cost — and otherwise fan out over a "
        "ProcessPoolExecutor, recording each result as it lands so a late "
        "worker failure cannot discard completed simulation."
    ),
)
class LocalExecutionBackend:
    """The seed behaviour behind the registry seam (see the summary)."""

    def run_tasks(self, tasks: Sequence[ExecutionTask],
                  record: RecordCallback, workers: int = 1) -> None:
        tasks = list(tasks)
        if not tasks:
            return
        # workers == 1 must never create a process pool: $REPRO_WORKERS=1
        # promises pure in-process execution (pytest-friendly tracebacks,
        # no fork/spawn overhead for small sweeps)
        if workers == 1 or len(tasks) == 1:
            for task in tasks:
                record(task, run_task(task.kind, task.payload))
            return
        with ProcessPoolExecutor(
                max_workers=min(workers, len(tasks))) as pool:
            futures = {
                pool.submit(_run_task_tuple, (task.kind, task.payload)): task
                for task in tasks
            }
            # cache every result the moment it lands so a late worker
            # failure cannot discard hours of completed simulation; the
            # first error is re-raised after the surviving points are safe
            first_error: Optional[BaseException] = None
            for future in as_completed(futures):
                task = futures[future]
                try:
                    result = future.result()
                except BaseException as error:
                    if first_error is None:
                        first_error = error
                    continue
                record(task, result)
            if first_error is not None:
                raise first_error


@register_execution_backend(
    "queue",
    display_name="Queue",
    aliases=("workqueue", "distributed"),
    summary="Durable file-backed work queue drained by 'python -m repro "
            "worker' processes on one or many hosts.",
    mechanism=(
        "Tasks are pickled into a shared queue directory; workers claim "
        "them with an atomic rename, hold a heartbeat-refreshed lease "
        "while simulating, and publish results back through the same "
        "directory. The submitter polls for outcomes, reclaims "
        "stale leases from crashed workers, and raises the first worker "
        "failure after recording every surviving result. At-least-once "
        "execution is safe because simulations are deterministic."
    ),
)
class QueueExecutionBackend:
    """Distributed execution over a :class:`WorkQueue` directory.

    Parameters
    ----------
    queue_dir:
        The shared queue directory; ``None`` resolves ``$REPRO_QUEUE_DIR``.
    spawn_workers:
        When positive, the submitter spawns this many ``python -m repro
        worker`` subprocesses on the queue for the duration of the call —
        a self-contained distributed run needing no external workers.
    poll_interval / lease_timeout / timeout:
        Result-poll cadence, seconds before a claimed task's lease counts
        as stale, and an optional overall deadline (``SimulationError`` on
        expiry; ``None`` waits forever — external workers may start late).
    """

    def __init__(self, queue_dir: Union[str, os.PathLike, None] = None,
                 spawn_workers: int = 0, poll_interval: float = 0.05,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 timeout: Optional[float] = None) -> None:
        if queue_dir is None:
            queue_dir = os.environ.get(QUEUE_DIR_ENV)
        if not queue_dir:
            raise SimulationError(
                "the queue execution backend needs a queue directory "
                f"(--queue-dir or ${QUEUE_DIR_ENV})"
            )
        self.queue = WorkQueue(queue_dir)
        self.spawn_workers = int(spawn_workers)
        self.poll_interval = max(float(poll_interval), 0.001)
        self.lease_timeout = float(lease_timeout)
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _spawn(self) -> List[subprocess.Popen]:
        """Start the backend's own worker subprocesses, when configured."""
        if self.spawn_workers <= 0:
            return []
        import repro

        env = dict(os.environ)
        source_root = str(os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (f"{source_root}{os.pathsep}{existing}"
                             if existing else source_root)
        command = [sys.executable, "-m", "repro", "worker",
                   "--queue-dir", str(self.queue.directory)]
        return [subprocess.Popen(command, env=env,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
                for _ in range(self.spawn_workers)]

    def run_tasks(self, tasks: Sequence[ExecutionTask],
                  record: RecordCallback, workers: int = 1) -> None:
        tasks = list(tasks)
        if not tasks:
            return
        outstanding = {
            self.queue.submit(task.kind, task.payload, task.cache_keys): task
            for task in tasks
        }
        spawned = self._spawn()
        deadline = (time.time() + self.timeout
                    if self.timeout is not None else None)
        first_error: Optional[str] = None
        try:
            while outstanding:
                progressed = False
                for task_id in list(outstanding):
                    outcome = self.queue.take_result(task_id)
                    if outcome is None:
                        continue
                    progressed = True
                    task = outstanding.pop(task_id)
                    if outcome.ok:
                        record(task, list(outcome.statistics))
                    elif first_error is None:
                        worker = (f" (worker {outcome.worker})"
                                  if outcome.worker else "")
                        first_error = (
                            f"queue task failed{worker}:\n{outcome.error}"
                        )
                if not outstanding:
                    break
                self.queue.reclaim_stale(self.lease_timeout)
                if progressed:
                    continue
                if spawned and all(proc.poll() is not None
                                   for proc in spawned):
                    raise SimulationError(
                        f"all {len(spawned)} spawned queue workers exited "
                        f"with {len(outstanding)} task(s) outstanding "
                        f"({self.queue.describe()})"
                    )
                if deadline is not None and time.time() > deadline:
                    raise SimulationError(
                        f"queue execution timed out after {self.timeout}s "
                        f"with {len(outstanding)} task(s) outstanding "
                        f"({self.queue.describe()})"
                    )
                time.sleep(self.poll_interval)
        finally:
            for proc in spawned:
                proc.terminate()
            for proc in spawned:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if first_error is not None:
            raise SimulationError(first_error)
