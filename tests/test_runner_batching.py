"""Tests for the runner's batched dispatch of cache-miss points.

When the selected backend supports batching (``batch``), the
:class:`~repro.runner.engine.ExperimentRunner` groups pending points by
:func:`~repro.runner.fingerprint.batch_group_key` and runs each group as
one vectorized :func:`simulate_route_set_batch` call.  These tests pin the
three load-bearing properties of that dispatch:

* grouping is content-addressed and deterministic — same groups, same lane
  order, same results for any worker count and any ``PYTHONHASHSEED``
  (checked in fresh subprocesses, mirroring the 1-vs-N worker equivalence
  of ``tests/test_runner_parallel.py``);
* results are bit-identical to the scalar backends' and land under the
  *unchanged* per-point cache keys, so batched runs warm the cache for
  scalar backends and vice versa;
* non-batching backends and unknown backends keep their scalar paths.

With no backend named, the width rule applies: a group of
:func:`~repro.simulator.backends.batch_min_width` or more misses runs on
``batch`` when the misses can keep every worker busy, split no further than
that takes, anything narrower on ``fast``, and everything on ``fast``
without numpy.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import repro.simulator.batchsim as batchsim
from repro.routing import XYRouting
from repro.runner import (
    ExperimentRunner,
    ResultCache,
    SweepSpec,
    batch_group_key,
)
from repro.runner.backends import QueueExecutionBackend, run_task
from repro.runner.fingerprint import simulation_cache_key
from repro.runner.worker import run_worker_loop
from repro.simulator import SimulationConfig
from repro.simulator.backends import batch_min_width
from repro.simulator.batchsim import np as _numpy
from repro.study.spec import Study
from repro.topology import Mesh2D, Torus2D

needs_numpy = pytest.mark.skipif(
    _numpy is None, reason="the batch backend requires numpy")

RATES = [0.3, 0.9, 2.0]

#: The width rule's narrowest batched group on the 4x4 mesh.
WIDTH = batch_min_width(Mesh2D(4))


@pytest.fixture
def batch_config() -> SimulationConfig:
    return SimulationConfig(num_vcs=2, buffer_depth=4, packet_size_flits=4,
                            warmup_cycles=50, measurement_cycles=200,
                            backend="batch")


@pytest.fixture
def xy_routes(mesh4, transpose4):
    return XYRouting().compute_routes(mesh4, transpose4)


def curve_values(result):
    return (result.curve.offered_rates, result.curve.throughputs,
            result.curve.latencies,
            [point.delivery_ratio for point in result.curve.points])


class TestGroupKey:
    def test_rate_and_lane_variable_fields_share_a_group(self, mesh4,
                                                         xy_routes,
                                                         batch_config):
        base = batch_group_key(mesh4, xy_routes, batch_config)
        for variant in (
            batch_config.with_backend("fast"),
            dataclasses.replace(batch_config, num_vcs=4),
            dataclasses.replace(batch_config, seed=99),
        ):
            assert batch_group_key(mesh4, xy_routes, variant) == base

    def test_uniform_fields_split_groups(self, mesh4, xy_routes,
                                         batch_config):
        base = batch_group_key(mesh4, xy_routes, batch_config)
        for variant in (
            dataclasses.replace(batch_config, buffer_depth=8),
            dataclasses.replace(batch_config, measurement_cycles=400),
            dataclasses.replace(batch_config, packet_size_flits=8),
        ):
            assert batch_group_key(mesh4, xy_routes, variant) != base

    def test_topology_routes_and_boundaries_split_groups(self, mesh4,
                                                         transpose4,
                                                         xy_routes,
                                                         batch_config):
        base = batch_group_key(mesh4, xy_routes, batch_config)
        torus = Torus2D(4)
        assert batch_group_key(torus, xy_routes, batch_config) != base
        assert batch_group_key(
            mesh4, xy_routes, batch_config,
            phase_boundaries={"f0": 2}) != base

    def test_group_key_differs_from_cache_key(self, mesh4, xy_routes,
                                              batch_config):
        """The group key ignores the rate; the cache key never does."""
        group = batch_group_key(mesh4, xy_routes, batch_config)
        point_a = simulation_cache_key(mesh4, xy_routes, batch_config, 0.5)
        point_b = simulation_cache_key(mesh4, xy_routes, batch_config, 1.5)
        assert point_a != point_b
        assert group not in (point_a, point_b)


@needs_numpy
class TestBatchedDispatch:
    def test_sweep_groups_and_matches_scalar(self, mesh4, xy_routes,
                                             batch_config):
        scalar = ExperimentRunner(workers=1).sweep(
            mesh4, xy_routes, batch_config.with_backend("fast"), RATES,
            workload="transpose")
        runner = ExperimentRunner(workers=1)
        batched = runner.sweep(mesh4, xy_routes, batch_config, RATES,
                               workload="transpose")
        assert runner.last_report.batch_groups == 1
        assert "1 batched group(s)" in runner.last_report.describe()
        assert curve_values(scalar) == curve_values(batched)
        assert scalar.statistics == batched.statistics

    def test_one_vs_many_workers_identical(self, mesh4, xy_routes,
                                           batch_config):
        serial = ExperimentRunner(workers=1).sweep(
            mesh4, xy_routes, batch_config, RATES)
        parallel = ExperimentRunner(workers=3).sweep(
            mesh4, xy_routes, batch_config, RATES)
        assert curve_values(serial) == curve_values(parallel)
        assert serial.statistics == parallel.statistics

    def test_lane_variable_sweeps_merge_into_one_group(self, mesh4,
                                                       xy_routes,
                                                       batch_config):
        """Two sweeps differing only in VC count batch together."""
        runner = ExperimentRunner(workers=1)
        results = runner.sweep_many({
            "vc2": SweepSpec(mesh4, xy_routes, batch_config, [0.5, 1.0]),
            "vc4": SweepSpec(mesh4, xy_routes,
                             dataclasses.replace(batch_config, num_vcs=4),
                             [0.5, 1.0]),
        })
        assert runner.last_report.batch_groups == 1
        for key, result in results.items():
            assert len(result.statistics) == 2

    def test_different_routes_split_groups(self, mesh4, transpose4,
                                           batch_config):
        from repro.routing import ROMMRouting
        from repro.simulator.simulation import phase_boundaries_for

        xy = XYRouting().compute_routes(mesh4, transpose4)
        romm_algorithm = ROMMRouting(seed=1)
        romm = romm_algorithm.compute_routes(mesh4, transpose4)
        runner = ExperimentRunner(workers=2)
        results = runner.sweep_many({
            "xy": SweepSpec(mesh4, xy, batch_config, [0.5, 1.0]),
            "romm": SweepSpec(
                mesh4, romm, batch_config, [0.5, 1.0],
                phase_boundaries=phase_boundaries_for(romm_algorithm, romm)),
        })
        assert runner.last_report.batch_groups == 2
        assert set(results) == {"xy", "romm"}

    def test_scalar_backends_never_group(self, mesh4, xy_routes,
                                         batch_config):
        runner = ExperimentRunner(workers=1)
        runner.sweep(mesh4, xy_routes, batch_config.with_backend("fast"),
                     RATES)
        assert runner.last_report.batch_groups == 0

    def test_mixed_backends_in_one_call(self, mesh4, transpose4,
                                        batch_config):
        """A fast sweep and a batch sweep share one sweep_many call."""
        xy = XYRouting().compute_routes(mesh4, transpose4)
        runner = ExperimentRunner(workers=2)
        results = runner.sweep_many({
            "fast": SweepSpec(mesh4, xy, batch_config.with_backend("fast"),
                              [0.5, 1.0]),
            "batch": SweepSpec(mesh4, xy, batch_config, [0.5, 1.0]),
        })
        assert runner.last_report.batch_groups == 1
        assert (results["fast"].statistics == results["batch"].statistics)

    def test_batched_points_warm_the_scalar_cache(self, mesh4, xy_routes,
                                                  batch_config, tmp_path):
        """Per-point cache keys are untouched by grouping: a batched run
        is a full warm cache for the scalar backends, in both directions."""
        cache_dir = tmp_path / "cache"
        cold = ExperimentRunner(workers=2, cache=str(cache_dir))
        batched = cold.sweep(mesh4, xy_routes, batch_config, RATES)
        assert cold.last_report.cache_hits == 0
        warm = ExperimentRunner(workers=1, cache=str(cache_dir))
        scalar = warm.sweep(mesh4, xy_routes,
                            batch_config.with_backend("reference"), RATES)
        assert warm.last_report.cache_hits == len(RATES)
        assert scalar.statistics == batched.statistics


def wide_rates(width):
    """*width* distinct offered rates: one batchable group of that width."""
    return [0.25 * (lane + 1) for lane in range(width)]


@pytest.fixture
def unset_config(batch_config) -> SimulationConfig:
    """The batch fixture with no backend named: the width rule decides."""
    return dataclasses.replace(batch_config, backend=None)


@needs_numpy
class TestUnsetBackendWidthRule:
    @pytest.mark.parametrize("width, workers, groups", [
        (WIDTH, 1, 1), (WIDTH - 1, 1, 0),
        # one group for two workers would leave one of them idle
        (WIDTH, 2, 0)])
    def test_only_wide_groups_batch_and_match_fast(self, mesh4, xy_routes,
                                                   unset_config, tmp_path,
                                                   width, workers, groups):
        rates = wide_rates(width)
        fast_cache = ResultCache(tmp_path / "fast")
        fast = ExperimentRunner(workers=1, cache=fast_cache).sweep(
            mesh4, xy_routes, unset_config.with_backend("fast"), rates)
        unset_cache = ResultCache(tmp_path / "unset")
        runner = ExperimentRunner(workers=workers, cache=unset_cache)
        unset = runner.sweep(mesh4, xy_routes, unset_config, rates)
        assert runner.last_report.batch_groups == groups
        assert runner.last_report.points_simulated == width
        assert unset.statistics == fast.statistics
        keys = sorted(unset_cache.keys())
        assert keys == sorted(fast_cache.keys())
        assert len(keys) == width

    def test_without_numpy_everything_runs_on_fast(self, mesh4, xy_routes,
                                                   unset_config,
                                                   monkeypatch):
        rates = wide_rates(WIDTH)
        fast = ExperimentRunner(workers=1).sweep(
            mesh4, xy_routes, unset_config.with_backend("fast"), rates)
        monkeypatch.setattr(batchsim, "np", None)
        runner = ExperimentRunner(workers=1)
        unset = runner.sweep(mesh4, xy_routes, unset_config, rates)
        assert runner.last_report.batch_groups == 0
        assert unset.statistics == fast.statistics

    def test_a_batch_task_frees_its_arena_when_it_returns(
            self, mesh4, xy_routes, unset_config, monkeypatch):
        """The kernel holds no reference cycle, so a task's arena goes the
        moment the task returns, not at the next cyclic collection."""
        kernels = []
        run_all = batchsim.BatchSimulator.run_all

        def recording(kernel):
            kernels.append(weakref.ref(kernel))
            return run_all(kernel)

        monkeypatch.setattr(batchsim.BatchSimulator, "run_all", recording)
        points = [(unset_config, rate) for rate in RATES]
        gc.disable()
        try:
            run_task("batch", (mesh4, xy_routes, points, None, None, "batch"))
            assert len(kernels) == 1 and kernels[0]() is None
        finally:
            gc.enable()

    def test_mixed_wide_and_narrow_groups_at_one_and_two_workers(
            self, mesh4, transpose4, xy_routes, unset_config):
        from repro.routing import ROMMRouting
        from repro.simulator.simulation import phase_boundaries_for

        romm_algorithm = ROMMRouting(seed=1)
        romm = romm_algorithm.compute_routes(mesh4, transpose4)
        specs = {
            # one group wide enough for two workers: the two VC counts
            # share lanes
            "vc2": SweepSpec(mesh4, xy_routes, unset_config,
                             wide_rates(WIDTH)),
            "vc4": SweepSpec(mesh4, xy_routes,
                             dataclasses.replace(unset_config, num_vcs=4),
                             wide_rates(WIDTH + 1)),
            # one narrow group: other routes
            "romm": SweepSpec(
                mesh4, romm, unset_config, RATES,
                phase_boundaries=phase_boundaries_for(romm_algorithm, romm)),
        }
        outcomes = []
        for workers in (1, 2):
            runner = ExperimentRunner(workers=workers)
            results = runner.sweep_many(specs)
            # the wide group runs whole on one worker, in two chunks of at
            # least WIDTH points on two
            assert runner.last_report.batch_groups == workers
            outcomes.append({key: (curve_values(result), result.statistics)
                             for key, result in results.items()})
        assert outcomes[0] == outcomes[1]
        fast = ExperimentRunner(workers=1).sweep_many({
            key: dataclasses.replace(spec,
                                     config=spec.config.with_backend("fast"))
            for key, spec in specs.items()})
        assert {key: result.statistics for key, result in fast.items()} == \
            {key: statistics for key, (_, statistics) in outcomes[0].items()}

    def test_groups_that_fill_the_workers_run_whole(
            self, mesh4, transpose4, xy_routes, unset_config):
        from repro.routing import ROMMRouting
        from repro.simulator.simulation import phase_boundaries_for

        romm_algorithm = ROMMRouting(seed=1)
        romm = romm_algorithm.compute_routes(mesh4, transpose4)
        rates = wide_rates(2 * WIDTH)
        specs = {
            "xy": SweepSpec(mesh4, xy_routes, unset_config, rates),
            "romm": SweepSpec(
                mesh4, romm, unset_config, rates,
                phase_boundaries=phase_boundaries_for(romm_algorithm, romm)),
        }
        runner = ExperimentRunner(workers=2)
        results = runner.sweep_many(specs)
        # two groups already give both workers a task: neither is split
        assert runner.last_report.batch_groups == 2
        fast = ExperimentRunner(workers=1).sweep_many({
            key: dataclasses.replace(spec,
                                     config=spec.config.with_backend("fast"))
            for key, spec in specs.items()})
        assert {key: result.statistics for key, result in results.items()} \
            == {key: result.statistics for key, result in fast.items()}

    def test_a_wide_group_through_the_queue_is_the_local_document(
            self, tmp_path):
        vcs = [1, 2, 4, 8]
        rates = wide_rates(WIDTH // len(vcs) + 1)
        study = Study.from_dict({
            "name": "wide", "profile": "quick", "workers": 1,
            "scenarios": [{"topologies": ["mesh4x4"],
                           "patterns": ["transpose"], "routers": ["dor"],
                           "vcs": vcs, "rates": rates}]})
        assert len(vcs) * len(rates) >= WIDTH
        local = study.run(cache=False)
        assert local.report.batch_groups == 1
        worker = threading.Thread(
            target=run_worker_loop,
            kwargs=dict(queue_dir=tmp_path / "q", max_tasks=1,
                        poll_interval=0.01),
            daemon=True)
        worker.start()
        queued = study.run(cache=False, execution=QueueExecutionBackend(
            queue_dir=tmp_path / "q", poll_interval=0.01, timeout=120))
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert queued.report.batch_groups == 1
        assert queued.to_json() == local.to_json()


DETERMINISM_SCRIPT = """
import hashlib, json, sys
from repro.routing import XYRouting
from repro.runner import ExperimentRunner, SweepSpec, batch_group_key
from repro.simulator import SimulationConfig
from repro.topology import Mesh2D
from repro.traffic import synthetic_by_name
import dataclasses

mesh = Mesh2D(4)
flows = synthetic_by_name("transpose", 16, demand=25.0)
routes = XYRouting().compute_routes(mesh, flows)
config = SimulationConfig(num_vcs=2, buffer_depth=4, packet_size_flits=4,
                          warmup_cycles=50, measurement_cycles=200,
                          backend="batch")
runner = ExperimentRunner(workers=None)
results = runner.sweep_many({
    "vc2": SweepSpec(mesh, routes, config, [0.3, 0.9, 2.0]),
    "vc4": SweepSpec(mesh, routes,
                     dataclasses.replace(config, num_vcs=4), [0.3, 2.0]),
})
payload = {
    "group": batch_group_key(mesh, routes, config),
    "groups": runner.last_report.batch_groups,
    "curves": {key: [result.curve.offered_rates,
                     result.curve.throughputs,
                     result.curve.latencies]
               for key, result in sorted(results.items())},
}
canonical = json.dumps(payload, sort_keys=True)
print(hashlib.sha256(canonical.encode()).hexdigest())
"""


@needs_numpy
def test_grouping_deterministic_across_hashseed_and_workers():
    """Fresh interpreters with different ``PYTHONHASHSEED`` values and
    worker counts produce byte-identical grouped results — grouping hangs
    off content fingerprints and stable pending order, never ``hash()``."""
    src = Path(__file__).resolve().parents[1] / "src"
    digests = set()
    for hashseed, workers in (("0", "1"), ("1", "3"), ("2", "2")):
        env = dict(os.environ,
                   PYTHONHASHSEED=hashseed,
                   REPRO_WORKERS=workers,
                   PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", DETERMINISM_SCRIPT],
            capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
