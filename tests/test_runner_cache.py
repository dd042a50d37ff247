"""Tests for the runner's content-addressed result cache.

Covers the satellite requirements: key stability across processes (and
across ``PYTHONHASHSEED``), cache hit/miss behaviour through the runner,
and invalidation when any field of the simulation inputs changes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.metrics.statistics import SimulationStatistics
from repro.routing import BSORRouting, XYRouting, YXRouting
from repro.runner import (
    ExperimentRunner,
    ResultCache,
    simulation_cache_key,
    statistics_from_dict,
    statistics_to_dict,
)
from repro.simulator import SimulationConfig
from repro.topology import Mesh2D
from repro.traffic import transpose


@pytest.fixture
def sim_config() -> SimulationConfig:
    return SimulationConfig(num_vcs=2, buffer_depth=4, packet_size_flits=4,
                            warmup_cycles=50, measurement_cycles=200)


@pytest.fixture
def xy_routes(mesh4, transpose4):
    return XYRouting().compute_routes(mesh4, transpose4)


KEY_SCRIPT = """
from repro.routing import XYRouting
from repro.runner import simulation_cache_key
from repro.simulator import SimulationConfig
from repro.topology import Mesh2D
from repro.traffic import transpose

mesh = Mesh2D(4)
routes = XYRouting().compute_routes(mesh, transpose(16, demand=1.0))
config = SimulationConfig(num_vcs=2, buffer_depth=4, packet_size_flits=4,
                          warmup_cycles=50, measurement_cycles=200)
print(simulation_cache_key(mesh, routes, config, 0.5, {"f1": 2}))
"""


class TestKeyStability:
    def test_key_is_deterministic_in_process(self, mesh4, xy_routes, sim_config):
        first = simulation_cache_key(mesh4, xy_routes, sim_config, 0.5)
        second = simulation_cache_key(mesh4, xy_routes, sim_config, 0.5)
        assert first == second
        assert len(first) == 64  # sha256 hex

    def test_key_ignores_object_identity(self, mesh4, transpose4, sim_config):
        """Rebuilding the same experiment yields the same key."""
        key_a = simulation_cache_key(
            mesh4, XYRouting().compute_routes(mesh4, transpose4),
            sim_config, 1.0,
        )
        key_b = simulation_cache_key(
            Mesh2D(4),
            XYRouting().compute_routes(Mesh2D(4), transpose(16, demand=1.0)),
            dataclasses.replace(sim_config), 1.0,
        )
        assert key_a == key_b

    @pytest.mark.slow
    def test_key_stable_across_processes(self):
        """Fresh interpreters with different hash seeds agree on the key."""
        keys = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "src")]
                + env.get("PYTHONPATH", "").split(os.pathsep)
            )
            result = subprocess.run(
                [sys.executable, "-c", KEY_SCRIPT],
                capture_output=True, text=True, env=env, check=True,
            )
            keys.add(result.stdout.strip())
        assert len(keys) == 1


class TestKeyInvalidation:
    def test_every_config_field_invalidates(self, mesh4, xy_routes, sim_config):
        """Changing any outcome-determining config field produces a new key.

        ``backend`` is the one deliberate exception: backends are
        bit-identical, so the kernel choice must *not* invalidate cached
        results (asserted separately below).
        """
        base_key = simulation_cache_key(mesh4, xy_routes, sim_config, 0.5)
        changed = dict(
            num_vcs=4,
            buffer_depth=8,
            packet_size_flits=2,
            warmup_cycles=51,
            measurement_cycles=300,
            local_bandwidth=2,
            injection_buffer_depth=32,
            seed=7,
            bandwidth_variation=0.1,
            variation_dwell_cycles=100,
            drop_when_source_full=True,
        )
        assert set(changed) | {"backend"} == {
            field.name for field in dataclasses.fields(SimulationConfig)
        }
        for field_name, new_value in changed.items():
            varied = dataclasses.replace(sim_config, **{field_name: new_value})
            assert simulation_cache_key(mesh4, xy_routes, varied, 0.5) \
                != base_key, f"field {field_name} did not invalidate the key"

    def test_backend_choice_keeps_the_key(self, mesh4, xy_routes, sim_config):
        """Cache keys are backend-invariant: warm caches survive a backend
        switch (and entries written before the backend field existed stay
        valid)."""
        from repro.simulator import available_backends

        keys = {
            simulation_cache_key(
                mesh4, xy_routes,
                dataclasses.replace(sim_config, backend=backend), 0.5)
            for backend in available_backends()
        }
        assert len(keys) == 1

    def test_rate_topology_routes_and_boundaries_invalidate(
            self, mesh4, transpose4, xy_routes, sim_config):
        base_key = simulation_cache_key(mesh4, xy_routes, sim_config, 0.5)
        assert simulation_cache_key(mesh4, xy_routes, sim_config, 0.6) != base_key
        assert simulation_cache_key(
            mesh4, xy_routes, sim_config, 0.5, {"f1": 1}) != base_key
        other_routes = YXRouting().compute_routes(mesh4, transpose4)
        assert simulation_cache_key(
            mesh4, other_routes, sim_config, 0.5) != base_key
        mesh5 = Mesh2D(5)
        routes5 = XYRouting().compute_routes(mesh5, transpose4)
        assert simulation_cache_key(
            mesh5, routes5, sim_config, 0.5) != base_key

    def test_demand_change_invalidates(self, mesh4, sim_config):
        light = XYRouting().compute_routes(mesh4, transpose(16, demand=1.0))
        heavy = XYRouting().compute_routes(mesh4, transpose(16, demand=2.0))
        assert simulation_cache_key(mesh4, light, sim_config, 0.5) != \
            simulation_cache_key(mesh4, heavy, sim_config, 0.5)

    def test_static_vc_allocation_is_part_of_the_key(self, mesh4, transpose4,
                                                     sim_config):
        dynamic = BSORRouting(selector="dijkstra").compute_routes(
            mesh4, transpose4)
        static = BSORRouting(selector="dijkstra", num_vcs=2).compute_routes(
            mesh4, transpose4)
        assert simulation_cache_key(mesh4, dynamic, sim_config, 0.5) != \
            simulation_cache_key(mesh4, static, sim_config, 0.5)


class TestResultCacheStore:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = SimulationStatistics(
            cycles=100, warmup_cycles=10, packets_injected=50,
            packets_delivered=40, flits_delivered=160, total_latency=500.0,
            per_flow_latency={"f1": 500.0}, per_flow_delivered={"f1": 40},
            dropped_at_source=2,
        )
        cache.put("a" * 64, stats)
        assert "a" * 64 in cache
        assert len(cache) == 1
        loaded = cache.get("a" * 64)
        assert loaded == stats

    def test_miss_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("b" * 64) is None
        assert cache.misses == 1
        cache.put("b" * 64, SimulationStatistics(
            cycles=1, warmup_cycles=0, packets_injected=0,
            packets_delivered=0, flits_delivered=0, total_latency=0.0,
        ))
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / ("c" * 64 + ".json")).write_text("{not json")
        assert cache.get("c" * 64) is None

    def test_statistics_dict_round_trip(self):
        stats = SimulationStatistics(
            cycles=10, warmup_cycles=2, packets_injected=5,
            packets_delivered=4, flits_delivered=16, total_latency=40.0,
        )
        assert statistics_from_dict(statistics_to_dict(stats)) == stats

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            statistics_from_dict({"cycles": 1, "bogus": 2})


def _stats(latency: float = 500.0) -> SimulationStatistics:
    return SimulationStatistics(
        cycles=100, warmup_cycles=10, packets_injected=50,
        packets_delivered=40, flits_delivered=160, total_latency=latency,
        per_flow_latency={"f1": latency}, per_flow_delivered={"f1": 40},
    )


class TestLayeredCache:
    def test_put_writes_through_to_both_tiers(self, tmp_path):
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        cache.put("a" * 64, _stats())
        assert (tmp_path / "local" / ("a" * 64 + ".json")).exists()
        assert (tmp_path / "shared" / ("a" * 64 + ".json")).exists()

    def test_shared_hit_reads_through_and_writes_back(self, tmp_path):
        # another host warmed the shared tier
        ResultCache(tmp_path / "shared").put("b" * 64, _stats())
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        loaded = cache.get("b" * 64)
        assert loaded == _stats()
        assert cache.hits == 1
        assert cache.shared_hits == 1
        # written back: the next read never leaves the local tier
        assert (tmp_path / "local" / ("b" * 64 + ".json")).exists()

    def test_local_hit_does_not_touch_the_shared_counter(self, tmp_path):
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        cache.put("c" * 64, _stats())
        assert cache.get("c" * 64) is not None
        assert cache.shared_hits == 0

    def test_miss_in_both_tiers(self, tmp_path):
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        assert cache.get("d" * 64) is None
        assert cache.misses == 1

    def test_contains_sees_the_shared_tier(self, tmp_path):
        ResultCache(tmp_path / "shared").put("e" * 64, _stats())
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        assert "e" * 64 in cache

    def test_clear_leaves_the_shared_tier_alone(self, tmp_path):
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        cache.put("f" * 64, _stats())
        assert cache.clear() == 1
        assert (tmp_path / "shared" / ("f" * 64 + ".json")).exists()

    def test_shared_equal_to_local_collapses(self, tmp_path):
        cache = ResultCache(tmp_path, shared_dir=tmp_path)
        assert cache.shared_dir is None

    def test_environment_variable_names_the_shared_tier(self, tmp_path,
                                                        monkeypatch):
        from repro.runner import SHARED_CACHE_DIR_ENV

        monkeypatch.setenv(SHARED_CACHE_DIR_ENV, str(tmp_path / "shared"))
        cache = ResultCache(tmp_path / "local")
        assert cache.shared_dir == tmp_path / "shared"
        monkeypatch.delenv(SHARED_CACHE_DIR_ENV)
        assert ResultCache(tmp_path / "local").shared_dir is None

    def test_runner_serves_warm_points_from_the_shared_tier(
            self, tmp_path, mesh4, xy_routes, sim_config):
        """The deployment shape: host A simulates, host B answers warm."""
        host_a = ExperimentRunner(workers=1, cache=ResultCache(
            tmp_path / "a", shared_dir=tmp_path / "shared"))
        first = host_a.sweep(mesh4, xy_routes, sim_config, [0.3, 0.9])
        assert host_a.last_report.points_simulated == 2

        host_b = ExperimentRunner(workers=1, cache=ResultCache(
            tmp_path / "b", shared_dir=tmp_path / "shared"))
        second = host_b.sweep(mesh4, xy_routes, sim_config, [0.3, 0.9])
        assert host_b.last_report.points_simulated == 0
        assert host_b.last_report.cache_hits == 2
        assert host_b.cache.shared_hits == 2
        assert second.curve.throughputs == first.curve.throughputs


def _decode(document):
    """A planner stand-in: accept a mapping with a ``routes`` field."""
    return document["routes"] or None


class TestPlanEntries:
    """Route plans are a second kind of entry in the same tiers: under
    ``plans/``, through the same publish and tier walk, never counted
    among the results."""

    def test_round_trip_lives_under_plans(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_plan("a" * 64, _decode) is None
        cache.put_plan("a" * 64, {"routes": {"f1": [[0, 1, -1]]}})
        assert cache.get_plan("a" * 64, _decode) == {"f1": [[0, 1, -1]]}
        assert (cache.plan_hits, cache.plan_misses) == (1, 1)
        assert [path.relative_to(tmp_path).as_posix()
                for path in tmp_path.rglob("*.json")] == \
            ["plans/" + "a" * 64 + ".json"]

    def test_results_never_count_plans(self, tmp_path):
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        cache.put_plan("a" * 64, {"routes": {"f1": []}})
        assert list(cache.keys()) == [] and len(cache) == 0
        assert "a" * 64 not in cache
        assert cache.get("a" * 64) is None
        stats = cache.stats()
        assert (stats["entries"], stats["bytes"]) == (0, 0)
        assert (stats["shared_entries"], stats["shared_bytes"]) == (0, 0)
        assert stats["plan_entries"] == stats["shared_plan_entries"] == 1
        assert stats["plan_bytes"] == stats["shared_plan_bytes"] > 0
        # and a result under the same key is its own entry
        cache.put("a" * 64, _stats())
        assert list(cache.keys()) == ["a" * 64]
        assert cache.stats()["plan_entries"] == 1
        assert (cache.hits, cache.misses) == (0, 1)

    def test_clear_removes_local_plans_and_counts_results_only(self,
                                                               tmp_path):
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        cache.put("a" * 64, _stats())
        cache.put_plan("b" * 64, {"routes": {"f1": []}})
        assert cache.clear() == 1
        assert cache.stats()["plan_entries"] == 0
        assert cache.stats()["shared_plan_entries"] == 1

    def test_shared_hit_reads_through_and_writes_back(self, tmp_path):
        ResultCache(tmp_path / "shared").put_plan("c" * 64,
                                                  {"routes": {"f1": [1]}})
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        assert cache.get_plan("c" * 64, _decode) == {"f1": [1]}
        local = tmp_path / "local" / "plans" / ("c" * 64 + ".json")
        shared = tmp_path / "shared" / "plans" / ("c" * 64 + ".json")
        assert local.read_bytes() == shared.read_bytes()
        # plan reads never move the result counters
        assert (cache.hits, cache.shared_hits, cache.plan_hits) == (0, 0, 1)

    def test_rejected_local_entry_reads_through_to_the_shared_tier(
            self, tmp_path):
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        cache.put_plan("d" * 64, {"routes": {"f1": [2]}})
        local = tmp_path / "local" / "plans" / ("d" * 64 + ".json")
        local.write_text(json.dumps({"key": "d" * 64,
                                     "plan": {"routes": {}}}))
        assert cache.get_plan("d" * 64, _decode) == {"f1": [2]}
        # ... and the write-back repaired the local copy
        assert ResultCache(tmp_path / "local").get_plan(
            "d" * 64, _decode) == {"f1": [2]}

    @pytest.mark.parametrize("content", [
        "", "{", '{"key": "x", "pl', "not json at all", "[1, 2, 3]", "null",
        '"text"', '{"key": "x"}', '{"plan": 7}', '{"plan": {"routes": {}}}',
        '{"statistics": {}}',
    ], ids=["zero-byte", "open-brace", "truncated", "non-json", "a-list",
            "null", "a-string", "no-plan-field", "plan-not-a-mapping",
            "rejected-by-the-decoder", "a-statistics-entry"])
    def test_hostile_entry_is_a_miss_and_is_overwritten(self, tmp_path,
                                                        content):
        cache = ResultCache(tmp_path)
        path = tmp_path / "plans" / ("e" * 64 + ".json")
        path.parent.mkdir()
        path.write_text(content)
        (path.parent / ".tmp-123-leftover.part").write_text('{"plan": {')
        assert cache.get_plan("e" * 64, _decode) is None
        assert cache.plan_misses == 1
        cache.put_plan("e" * 64, {"routes": {"f1": [3]}})
        assert cache.get_plan("e" * 64, _decode) == {"f1": [3]}
        assert cache.stats()["plan_entries"] == 1  # the leftover is no entry

    def test_decoder_errors_outside_the_contract_propagate(self, tmp_path):
        """Only a stale-layout error is a miss; a bug in a decoder is not
        silently turned into "solve again forever"."""
        cache = ResultCache(tmp_path)
        cache.put_plan("f" * 64, {"routes": {"f1": [4]}})
        with pytest.raises(ZeroDivisionError):
            cache.get_plan("f" * 64, lambda document: 1 / 0)

    def test_last_run_snapshot_and_stats_report_carry_the_plan_counters(
            self, tmp_path, mesh4, xy_routes, sim_config):
        from repro.cli.runner_commands import _render_cache_stats

        shared = tmp_path / "shared"
        cache = ResultCache(tmp_path / "local", shared_dir=shared)
        cache.put_plan("a" * 64, {"routes": {"f1": [5]}})
        cache.get_plan("a" * 64, _decode)
        cache.get_plan("b" * 64, _decode)
        ExperimentRunner(workers=1, cache=cache).sweep(
            mesh4, xy_routes, sim_config, [0.3])
        last = ResultCache(tmp_path / "local").last_run()
        assert (last["plan_hits"], last["plan_misses"]) == (1, 1)
        local_line, shared_line, last_line = _render_cache_stats(
            ResultCache(tmp_path / "local", shared_dir=shared)).splitlines()
        assert local_line.startswith("local ") and \
            "1 entries" in local_line and "1 route plan(s)" in local_line
        assert "1 entries" in shared_line and \
            "1 route plan(s)" in shared_line
        assert "1 plan(s) cached, 1 solved" in last_line

    def test_cache_clear_command_reports_both_kinds(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        cache.put("a" * 64, _stats())
        cache.put_plan("b" * 64, {"routes": {"f1": [6]}})
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == (
            f"removed 1 cached result(s) and 1 route plan(s) from {tmp_path}")
        assert not list(tmp_path.rglob("*.json"))


class TestMisfiledEntries:
    """An entry records the key it was stored under; a file whose recorded
    key is not the key asked for (a copy, a rename, a botched sync between
    tiers) is a miss like any other unreadable entry — served as a hit it
    would be another point's statistics, silently."""

    A, B = "a" * 64, "b" * 64

    def test_misfiled_statistics_are_a_miss_and_are_overwritten(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.A, _stats(500.0))
        shutil.copy(tmp_path / f"{self.A}.json", tmp_path / f"{self.B}.json")
        assert cache.get(self.B) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.get(self.A) == _stats(500.0)
        cache.put(self.B, _stats(700.0))
        assert cache.get(self.B) == _stats(700.0)
        assert json.loads(
            (tmp_path / f"{self.B}.json").read_text())["key"] == self.B

    def test_misfiled_plan_is_a_miss_and_is_overwritten(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_plan(self.A, {"routes": {"f1": [1]}})
        plans = tmp_path / "plans"
        shutil.copy(plans / f"{self.A}.json", plans / f"{self.B}.json")
        assert cache.get_plan(self.B, _decode) is None
        assert (cache.plan_hits, cache.plan_misses) == (0, 1)
        cache.put_plan(self.B, {"routes": {"f1": [2]}})
        assert cache.get_plan(self.B, _decode) == {"f1": [2]}
        assert cache.get_plan(self.A, _decode) == {"f1": [1]}

    @pytest.mark.parametrize("subdir", ["", "plans"],
                             ids=["statistics", "plan"])
    def test_misfiled_shared_entry_is_not_written_back(self, tmp_path,
                                                       subdir):
        shared = ResultCache(tmp_path / "shared")
        shared.put(self.A, _stats())
        shared.put_plan(self.A, {"routes": {"f1": [1]}})
        shutil.copy(tmp_path / "shared" / subdir / f"{self.A}.json",
                    tmp_path / "shared" / subdir / f"{self.B}.json")
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        found = cache.get_plan(self.B, _decode) if subdir \
            else cache.get(self.B)
        assert found is None
        assert cache.shared_hits == 0
        assert not (tmp_path / "local" / subdir / f"{self.B}.json").exists()
        # the rightly filed entry still reads through and is written back
        assert (cache.get_plan(self.A, _decode) if subdir
                else cache.get(self.A)) is not None
        assert (tmp_path / "local" / subdir / f"{self.A}.json").exists()

    def test_a_misfiled_local_entry_still_reads_through(self, tmp_path):
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        cache.put(self.A, _stats(500.0))
        cache.put(self.B, _stats(700.0))
        local = tmp_path / "local"
        shutil.copy(local / f"{self.A}.json", local / f"{self.B}.json")
        assert cache.get(self.B) == _stats(700.0)
        assert cache.shared_hits == 1
        # ... and the write-back repaired the local copy
        assert ResultCache(local).get(self.B) == _stats(700.0)

    def test_study_over_a_misfiled_entry_resimulates_that_one_point(
            self, tmp_path):
        from repro.study import Study

        study = (Study("misfiled").grid(topologies=["mesh4x4"],
                                        routers=["dor"],
                                        patterns=["transpose"])
                 .rates(0, values=[0.5, 1.0, 2.0])
                 ).with_policy(profile="quick", workers=1)
        cold = study.run(cache_dir=str(tmp_path))
        assert cold.report.points_simulated == 3
        first, second, _ = sorted(ResultCache(tmp_path).keys())
        right = (tmp_path / f"{second}.json").read_bytes()
        shutil.copy(tmp_path / f"{first}.json", tmp_path / f"{second}.json")
        again = study.run(cache_dir=str(tmp_path))
        assert (again.report.points_simulated,
                again.report.cache_hits) == (1, 2)
        assert again.to_json() == cold.to_json()
        assert json.loads(right) == json.loads(
            (tmp_path / f"{second}.json").read_text())
        warm = study.run(cache_dir=str(tmp_path))
        assert warm.report.cache_hits == 3
        assert warm.to_json() == cold.to_json()


class TestCacheObservability:
    def test_stats_payload(self, tmp_path):
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        cache.put("a" * 64, _stats())
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["shared_entries"] == 1
        assert stats["shared_dir"] == str(tmp_path / "shared")
        assert stats["last_run"] is None

    def test_record_run_round_trip(self, tmp_path, mesh4, xy_routes,
                                   sim_config):
        runner = ExperimentRunner(workers=1, cache=tmp_path)
        runner.sweep(mesh4, xy_routes, sim_config, [0.3, 0.9])
        last = ResultCache(tmp_path).last_run()
        assert last is not None
        assert last["points_total"] == 2
        assert last["points_simulated"] == 2
        assert last["cache_hits"] == 0
        runner.sweep(mesh4, xy_routes, sim_config, [0.3, 0.9])
        assert ResultCache(tmp_path).last_run()["cache_hits"] == 2

    def test_snapshot_is_not_an_entry(self, tmp_path, mesh4, xy_routes,
                                      sim_config):
        """The dotted last-run file never leaks into the key enumeration."""
        runner = ExperimentRunner(workers=1, cache=tmp_path)
        runner.sweep(mesh4, xy_routes, sim_config, [0.3])
        cache = ResultCache(tmp_path)
        assert len(cache) == 1
        assert all(len(key) == 64 for key in cache.keys())

    def test_describe_mentions_the_shared_tier(self, tmp_path):
        cache = ResultCache(tmp_path / "local", shared_dir=tmp_path / "shared")
        assert "shared=" in cache.describe()


class TestConcurrentWriters:
    def test_racing_puts_never_corrupt_an_entry(self, tmp_path):
        """Regression: concurrent writers of one key (threads here, worker
        processes and other hosts in deployment) must leave readers either
        a complete entry or a miss — never partial JSON."""
        from concurrent.futures import ThreadPoolExecutor

        cache = ResultCache(tmp_path)
        key = "a" * 64
        rounds = 50

        def hammer(worker: int) -> None:
            mine = ResultCache(tmp_path)
            for _ in range(rounds):
                mine.put(key, _stats())

        failures = []

        def read_loop() -> None:
            mine = ResultCache(tmp_path)
            for _ in range(rounds * 4):
                loaded = mine.get(key)
                if loaded is not None and loaded != _stats():
                    failures.append(loaded)

        with ThreadPoolExecutor(max_workers=5) as pool:
            futures = [pool.submit(hammer, index) for index in range(4)]
            futures.append(pool.submit(read_loop))
            for future in futures:
                future.result()
        assert not failures
        assert cache.get(key) == _stats()
        # every temp file was published or cleaned up — none leak
        assert not list(tmp_path.glob(".tmp-*"))

    def test_racing_puts_across_processes(self, tmp_path, mesh4, transpose4,
                                          sim_config):
        """Two pool-backed runners racing the same cold points: both finish
        and the directory holds exactly the expected complete entries."""
        from concurrent.futures import ThreadPoolExecutor

        def run() -> list:
            runner = ExperimentRunner(workers=1, cache=tmp_path)
            routes = XYRouting().compute_routes(mesh4, transpose4)
            return runner.sweep(mesh4, routes, sim_config,
                                [0.3, 0.9]).curve.throughputs

        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = [future.result()
                             for future in [pool.submit(run),
                                            pool.submit(run)]]
        assert first == second
        cache = ResultCache(tmp_path)
        assert len(cache) == 2
        for key in cache.keys():
            assert cache.get(key) is not None


class TestRunnerCacheBehaviour:
    def test_hit_miss_accounting(self, tmp_path, mesh4, xy_routes, sim_config):
        runner = ExperimentRunner(workers=1, cache=tmp_path)
        first = runner.sweep(mesh4, xy_routes, sim_config, [0.3, 0.9])
        assert runner.last_report.points_simulated == 2
        assert runner.last_report.cache_hits == 0

        second = runner.sweep(mesh4, xy_routes, sim_config, [0.3, 0.9])
        assert runner.last_report.points_simulated == 0
        assert runner.last_report.cache_hits == 2
        assert second.curve.throughputs == first.curve.throughputs
        assert second.curve.latencies == first.curve.latencies

        # a new rate simulates only the missing point
        third = runner.sweep(mesh4, xy_routes, sim_config, [0.3, 0.9, 1.5])
        assert runner.last_report.points_simulated == 1
        assert runner.last_report.cache_hits == 2
        assert third.curve.throughputs[:2] == first.curve.throughputs

    def test_warm_cache_never_invokes_the_simulator(
            self, tmp_path, mesh4, xy_routes, sim_config, monkeypatch):
        """Acceptance: a warm re-run must not construct any backend kernel."""
        from repro.simulator import available_backends, backend_spec

        runner = ExperimentRunner(workers=1, cache=tmp_path)
        cold = runner.sweep(mesh4, xy_routes, sim_config, [0.3, 0.9])

        def _forbidden(*args, **kwargs):
            raise AssertionError(
                "simulator kernel invoked despite a warm cache")

        for name in available_backends():
            monkeypatch.setattr(backend_spec(name).factory,
                                "__init__", _forbidden)
        warm = runner.sweep(mesh4, xy_routes, sim_config, [0.3, 0.9])
        assert warm.curve.throughputs == cold.curve.throughputs
        assert runner.last_report.points_simulated == 0

    def test_config_change_misses(self, tmp_path, mesh4, xy_routes, sim_config):
        runner = ExperimentRunner(workers=1, cache=tmp_path)
        runner.sweep(mesh4, xy_routes, sim_config, [0.5])
        varied = dataclasses.replace(sim_config, seed=99)
        runner.sweep(mesh4, xy_routes, varied, [0.5])
        assert runner.last_report.points_simulated == 1

    def test_disabled_cache_always_simulates(self, mesh4, xy_routes, sim_config):
        runner = ExperimentRunner(workers=1, cache=None)
        runner.sweep(mesh4, xy_routes, sim_config, [0.5])
        runner.sweep(mesh4, xy_routes, sim_config, [0.5])
        assert runner.last_report.points_simulated == 1
        assert runner.last_report.cache_hits == 0
