"""Parallel experiment engine with a content-addressed result cache.

This package is the evaluation plane of the reproduction.  The figure and
table harnesses in :mod:`repro.experiments` and the benchmark suite all send
their injection-rate sweeps through an :class:`ExperimentRunner`, which

* distributes independent simulation points across worker processes
  (``workers=N``, ``$REPRO_WORKERS``, or the CPU count);
* skips any point whose inputs hash to an already-cached result
  (:class:`ResultCache`, keyed by :func:`simulation_cache_key` over the
  topology, flow set, routes, simulation configuration and offered rate);
* groups the remaining cache misses by :func:`batch_group_key` whenever the
  selected backend supports batching (``--backend batch``), so a whole
  sweep's points run as one vectorized call instead of N scalar runs —
  per-point cache keys are unchanged by the grouping;
* returns the exact same ``SweepResult`` objects the serial driver in
  :mod:`repro.simulator.simulation` produces, bit-identical for any worker
  count because every point is an independent, seeded, cold-start run.

Typical use::

    from repro.runner import ExperimentRunner

    runner = ExperimentRunner(workers=4, cache=True)
    result = runner.sweep(
        mesh, route_set, sim_config, offered_rates=[0.5, 1.0, 2.0],
    )
    print(result.curve.throughputs, runner.last_report.describe())

The command line mirrors the API: ``python -m repro figure 6-1
--workers 4`` regenerates a figure, ``... cache info`` inspects the store.
"""

from .backends import (
    DEFAULT_EXECUTION,
    QUEUE_DIR_ENV,
    ExecutionBackendSpec,
    ExecutionTask,
    LocalExecutionBackend,
    QueueExecutionBackend,
    available_executions,
    execution_spec,
    execution_specs,
    register_execution_backend,
    resolve_execution,
    run_task,
)
from .cache import (
    CACHE_DIR_ENV,
    SHARED_CACHE_DIR_ENV,
    ResultCache,
    default_cache_dir,
    default_shared_cache_dir,
    statistics_from_dict,
    statistics_to_dict,
)
from .engine import (
    WORKERS_ENV,
    ExperimentRunner,
    RunnerReport,
    SweepSpec,
    resolve_workers,
    runner_for,
)
from .worker import run_worker_loop
from .workqueue import WorkQueue
from .fingerprint import (
    CACHE_SCHEMA_VERSION,
    PLAN_SCHEMA_VERSION,
    batch_group_key,
    config_fingerprint,
    flow_set_fingerprint,
    route_plan_key,
    route_set_fingerprint,
    simulation_cache_key,
    topology_fingerprint,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_EXECUTION",
    "ExecutionBackendSpec",
    "ExecutionTask",
    "ExperimentRunner",
    "LocalExecutionBackend",
    "PLAN_SCHEMA_VERSION",
    "QUEUE_DIR_ENV",
    "QueueExecutionBackend",
    "ResultCache",
    "RunnerReport",
    "SHARED_CACHE_DIR_ENV",
    "SweepSpec",
    "WORKERS_ENV",
    "WorkQueue",
    "available_executions",
    "batch_group_key",
    "config_fingerprint",
    "default_cache_dir",
    "default_shared_cache_dir",
    "execution_spec",
    "execution_specs",
    "flow_set_fingerprint",
    "register_execution_backend",
    "resolve_execution",
    "resolve_workers",
    "route_plan_key",
    "route_set_fingerprint",
    "run_task",
    "run_worker_loop",
    "runner_for",
    "simulation_cache_key",
    "statistics_from_dict",
    "statistics_to_dict",
    "topology_fingerprint",
]
