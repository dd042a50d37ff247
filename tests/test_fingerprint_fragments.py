"""Cache keys spliced from canonical fragments are the whole-payload keys.

:func:`~repro.runner.fingerprint.simulation_cache_key` and
:func:`~repro.runner.fingerprint.batch_group_key` build their SHA-256 input
by joining per-input fragments (topology, flow set, route set, boundaries,
fault schedule, configuration), each rendered once per ``sweep_many`` call,
instead of serialising one whole payload per point.  Every cache directory
in existence was filled under the whole-payload construction, so this file
pins the equivalence from four sides:

(a) a hypothesis campaign against the **oracle** — the whole-payload
    construction as it stood before the splice, kept here (and only here)
    verbatim — over topologies, routers, every configuration field, rates,
    boundaries and fault schedules, with and without a shared memo;
(b) literal digests recorded at the parent commit
    (``golden/simulation_point_keys.json``);
(c) a render count: one ``sweep_many`` renders each shared input once;
(d) the memo's scope: it lives for one call, sees mutations between calls,
    is indexed by identity but agrees across equal objects, and leaves no
    attribute behind on the objects it indexed.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import os
import weakref
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compare.matrix import parse_topology, pattern_flow_set
from repro.experiments.config import ExperimentConfig
from repro.faults import FailureSchedule
from repro.planning import plan_routes
from repro.routing import BSORRouting, RouteSet, XYRouting
from repro.runner import ExperimentRunner, ResultCache, SweepSpec
from repro.runner import fingerprint
from repro.runner.fingerprint import (
    CACHE_SCHEMA_VERSION,
    batch_group_key,
    simulation_cache_key,
)
from repro.simulator import SimulationConfig
from repro.simulator.batchsim import LANE_VARIABLE_FIELDS
from repro.topology import Mesh2D, Ring, Torus2D
from repro.topology.links import physical, virtual_index
from repro.traffic import FlowSet, transpose

GOLDEN = Path(__file__).parent / "golden" / "simulation_point_keys.json"
QUICK = ExperimentConfig.quick()


# ----------------------------------------------------------------------
# the oracle: the whole-payload construction, as it stood before the splice
# ----------------------------------------------------------------------
def _oracle_payload(topology, route_set, config, phase_boundaries,
                    fault_schedule):
    routes = {}
    for route in route_set:
        hops = []
        for resource in route.resources:
            channel = physical(resource)
            vc = virtual_index(resource)
            hops.append([channel.src, channel.dst, -1 if vc is None else vc])
        routes[route.flow.name] = hops
    config_payload = dataclasses.asdict(config)
    config_payload.pop("backend", None)
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "topology": {
            "type": type(topology).__name__,
            "nodes": sorted(topology.nodes),
            "channels": [(channel.src, channel.dst)
                         for channel in topology.channels],
        },
        "flows": [
            (flow.name, flow.source, flow.destination, float(flow.demand))
            for flow in route_set.flow_set
        ],
        "routes": {"algorithm": route_set.algorithm, "routes": routes},
        "config": config_payload,
        "phase_boundaries": sorted((phase_boundaries or {}).items()),
    }
    if fault_schedule:
        payload["faults"] = fault_schedule.to_payload()
    return payload


def _oracle_digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def oracle_cache_key(topology, route_set, config, offered_rate,
                     phase_boundaries=None, fault_schedule=None) -> str:
    payload = _oracle_payload(topology, route_set, config, phase_boundaries,
                              fault_schedule)
    payload["offered_rate"] = float(offered_rate)
    return _oracle_digest(payload)


def oracle_group_key(topology, route_set, config, phase_boundaries=None,
                     fault_schedule=None) -> str:
    payload = _oracle_payload(topology, route_set, config, phase_boundaries,
                              fault_schedule)
    payload["config"] = {field: value
                         for field, value in payload["config"].items()
                         if field not in LANE_VARIABLE_FIELDS}
    return _oracle_digest(payload)


# ----------------------------------------------------------------------
# subjects: (topology, route set, the router's own phase boundaries)
# ----------------------------------------------------------------------
def _shortest_path_routes(topology, pairs, algorithm) -> RouteSet:
    """Hand-laid geodesic routes: no registered router routes a torus or a
    ring, and the key functions serialise whatever they are handed."""
    flows = FlowSet(name=algorithm)
    routes = RouteSet(topology, flows, algorithm=algorithm)
    graph = topology.to_networkx()
    for source, destination in pairs:
        flow = flows.add_flow(source, destination, 1.5)
        routes.add_node_path(flow, nx.shortest_path(graph, source,
                                                    destination))
    return routes


@functools.lru_cache(maxsize=None)
def _subjects():
    mesh = parse_topology("mesh4x4")
    flows = pattern_flow_set("transpose", mesh, QUICK)
    subjects = {}
    for router in ("dor", "o1turn", "romm"):
        plan = plan_routes(router, mesh, flows, QUICK)
        subjects[router] = (plan.topology, plan.route_set,
                            plan.phase_boundaries or None)
    static = BSORRouting(selector="dijkstra", num_vcs=2).compute_routes(
        mesh, flows)
    assert any(virtual_index(resource) is not None
               for route in static for resource in route.resources)
    subjects["bsor-static-vc"] = (mesh, static, None)
    torus = Torus2D(4)
    subjects["torus"] = (torus, _shortest_path_routes(
        torus, [(0, 10), (3, 12), (5, 6), (15, 0)], "geodesic"), None)
    ring = Ring(6)
    subjects["ring"] = (ring, _shortest_path_routes(
        ring, [(0, 3), (4, 1), (2, 5)], "geodesic"), None)
    return subjects


SUBJECT_NAMES = ("dor", "o1turn", "romm", "bsor-static-vc", "torus", "ring")

#: One strategy per ``SimulationConfig`` field.  ``backend`` is drawn too —
#: it must *not* reach either key.  A new field fails
#: ``test_every_configuration_field_is_drawn`` until it is added here.
CONFIG_FIELDS = {
    "num_vcs": st.integers(1, 8),
    "buffer_depth": st.integers(1, 32),
    "packet_size_flits": st.integers(1, 8),
    "warmup_cycles": st.integers(0, 20_000),
    "measurement_cycles": st.integers(1, 100_000),
    "local_bandwidth": st.integers(1, 8),
    "injection_buffer_depth": st.integers(8, 128),
    "seed": st.integers(0, 2 ** 32),
    "bandwidth_variation": st.floats(0.0, 1.0),
    "variation_dwell_cycles": st.integers(1, 1_000),
    "drop_when_source_full": st.booleans(),
    "backend": st.sampled_from(["fast", "reference", "batch"]),
}

configs = st.builds(SimulationConfig, **CONFIG_FIELDS)
rates = st.one_of(st.integers(0, 50),
                  st.floats(0.0, 100.0, allow_nan=False))


@st.composite
def sweeps(draw):
    """One subject, its shared boundaries and schedule, and 1-4 points."""
    topology, route_set, own_boundaries = _subjects()[
        draw(st.sampled_from(SUBJECT_NAMES))]
    boundaries = draw(st.one_of(
        st.just(own_boundaries), st.just({}),
        st.dictionaries(st.text(max_size=4), st.integers(0, 9), max_size=3)))
    channels = list(topology.channels)
    events = draw(st.lists(
        st.tuples(st.integers(1, 5_000),
                  st.lists(st.sampled_from(channels), min_size=1, max_size=3,
                           unique=True)),
        max_size=3, unique_by=lambda event: event[0]))
    schedule = draw(st.sampled_from(
        [None, FailureSchedule(), FailureSchedule(events=tuple(events))]))
    points = draw(st.lists(st.tuples(configs, rates), min_size=1, max_size=4))
    return topology, route_set, boundaries, schedule, points


class TestSplicedKeysEqualTheWholePayloadDigest:
    def test_every_configuration_field_is_drawn(self):
        assert set(CONFIG_FIELDS) == {
            field.name for field in dataclasses.fields(SimulationConfig)}

    @given(sweeps())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_point_and_group_keys_match_the_oracle(self, sweep):
        topology, route_set, boundaries, schedule, points = sweep
        memo = {}
        for config, rate in points:
            expected = oracle_cache_key(topology, route_set, config, rate,
                                        boundaries, schedule)
            assert simulation_cache_key(
                topology, route_set, config, rate, boundaries,
                fault_schedule=schedule) == expected
            assert simulation_cache_key(
                topology, route_set, config, rate, boundaries,
                fault_schedule=schedule, memo=memo) == expected
            group = oracle_group_key(topology, route_set, config,
                                     boundaries, schedule)
            assert batch_group_key(topology, route_set, config, boundaries,
                                   fault_schedule=schedule) == group
            assert batch_group_key(topology, route_set, config, boundaries,
                                   fault_schedule=schedule,
                                   memo=memo) == group

    def test_a_non_empty_schedule_reaches_both_keys(self):
        topology, route_set, _ = _subjects()["dor"]
        schedule = FailureSchedule(events=((200, (topology.channels[0],)),))
        config = QUICK.simulation
        assert simulation_cache_key(
            topology, route_set, config, 1.0, fault_schedule=schedule) != \
            simulation_cache_key(topology, route_set, config, 1.0)
        assert batch_group_key(
            topology, route_set, config, fault_schedule=schedule) != \
            batch_group_key(topology, route_set, config)


# ----------------------------------------------------------------------
# (b) literal digests recorded at the parent commit
# ----------------------------------------------------------------------
def _pinned_keys() -> dict:
    topology = parse_topology("mesh4x4")
    flows = pattern_flow_set("transpose", topology, QUICK)
    simulation = QUICK.simulation

    def plan(router, faults=None):
        planned = plan_routes(router, topology, flows, QUICK, faults)
        return (planned.topology, planned.route_set,
                planned.phase_boundaries or None, planned.schedule or None)

    def point(subject, config, rate):
        where, routes, boundaries, schedule = subject
        return simulation_cache_key(where, routes, config, rate, boundaries,
                                    fault_schedule=schedule)

    def group(subject, config):
        where, routes, boundaries, schedule = subject
        return batch_group_key(where, routes, config, boundaries,
                               fault_schedule=schedule)

    intact, failing, two_phase = (plan("dor"), plan("dor", "link:5-6@200"),
                                  plan("romm"))
    assert failing[3] and two_phase[2]
    return {
        "point|dor|none|vcs=1|rate=1.0":
            point(intact, simulation.with_vcs(1), 1.0),
        "point|dor|none|vcs=8|rate=1.0":
            point(intact, simulation.with_vcs(8), 1.0),
        "point|dor|link:5-6@200|rate=2.5": point(failing, simulation, 2.5),
        "point|romm|none|rate=2.5": point(two_phase, simulation, 2.5),
        "group|dor|none": group(intact, simulation),
        "group|dor|link:5-6@200": group(failing, simulation),
    }


class TestKeysRecordedAtTheParentCommit:
    def test_recorded_digests_still_come_out(self):
        if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
            GOLDEN.write_text(json.dumps(_pinned_keys(), indent=2,
                                         sort_keys=True) + "\n")
        recorded = json.loads(GOLDEN.read_text())
        assert len(recorded) == 6 and len(set(recorded.values())) == 6
        assert _pinned_keys() == recorded, (
            "a simulation-point or batch-group key changed: every cache "
            "directory filled before this commit would go cold; regenerate "
            "only deliberately, with a CACHE_SCHEMA_VERSION bump")


# ----------------------------------------------------------------------
# (c) one sweep_many renders each shared input once
# ----------------------------------------------------------------------
TINY = SimulationConfig(num_vcs=2, buffer_depth=4, packet_size_flits=4,
                        warmup_cycles=20, measurement_cycles=60)
RENDERERS = ("topology_fingerprint", "flow_set_fingerprint",
             "route_set_fingerprint", "config_fingerprint")


@pytest.fixture
def renders(monkeypatch):
    """Call counts of the four public fragment renderers."""
    counts = dict.fromkeys(RENDERERS, 0)
    for name in RENDERERS:
        def counted(source, name=name, render=getattr(fingerprint, name)):
            counts[name] += 1
            return render(source)
        monkeypatch.setattr(fingerprint, name, counted)
    return counts


def _vc_sweep(backend="fast"):
    mesh = Mesh2D(4)
    routes = XYRouting().compute_routes(mesh, transpose(16, demand=1.0))
    config = dataclasses.replace(TINY, backend=backend)
    return {f"vc{vcs}": SweepSpec(mesh, routes, config.with_vcs(vcs),
                                  [0.5, 1.0, 2.0])
            for vcs in (1, 2, 4, 8)}


class TestOneSweepRendersEachSharedInputOnce:
    def test_four_vc_counts_by_three_rates(self, tmp_path, renders):
        runner = ExperimentRunner(workers=1, cache=str(tmp_path))
        runner.sweep_many(_vc_sweep())
        assert runner.last_report.points_total == 12
        assert renders == {"topology_fingerprint": 1,
                           "flow_set_fingerprint": 1,
                           "route_set_fingerprint": 1,
                           "config_fingerprint": 4}

    def test_group_keys_share_the_point_keys_memo(self, tmp_path, renders):
        pytest.importorskip("numpy")
        runner = ExperimentRunner(workers=1, cache=str(tmp_path))
        runner.sweep_many(_vc_sweep(backend="batch"))
        assert runner.last_report.batch_groups == 1
        # four point-key configurations plus their four group-key
        # remainders; the big fragments are not rendered again
        assert renders == {"topology_fingerprint": 1,
                           "flow_set_fingerprint": 1,
                           "route_set_fingerprint": 1,
                           "config_fingerprint": 8}

    def test_a_standalone_call_renders_everything(self, renders):
        spec = next(iter(_vc_sweep().values()))
        for rate in (0.5, 1.0):
            simulation_cache_key(spec.topology, spec.route_set, spec.config,
                                 rate)
        assert set(renders.values()) == {2}


# ----------------------------------------------------------------------
# (d) the memo's scope
# ----------------------------------------------------------------------
class TestMemoScope:
    @staticmethod
    def _subject():
        mesh = Mesh2D(4)
        flows = FlowSet(name="pair")
        routes = RouteSet(mesh, flows, algorithm="hand")
        routes.add_node_path(flows.add_flow(0, 3, 1.0), [0, 1, 2, 3])
        routes.add_node_path(flows.add_flow(12, 4, 1.0), [12, 8, 4])
        return mesh, flows, routes

    def test_mutations_between_calls_change_the_keys(self, tmp_path):
        mesh, flows, routes = self._subject()
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(workers=1, cache=cache)
        runner.sweep(mesh, routes, TINY, [1.0])
        assert runner.last_report.points_simulated == 1
        first = set(cache.keys())
        assert first == {simulation_cache_key(mesh, routes, TINY, 1.0)}

        routes.algorithm = "renamed"  # what BSOR does after construction
        runner.sweep(mesh, routes, TINY, [1.0])
        assert runner.last_report.points_simulated == 1
        second = set(cache.keys()) - first
        assert second == {simulation_cache_key(mesh, routes, TINY, 1.0)}

        routes.add_node_path(flows.add_flow(5, 7, 2.0), [5, 6, 7])
        runner.sweep(mesh, routes, TINY, [1.0])
        assert runner.last_report.points_simulated == 1
        assert len(set(cache.keys()) - first - second) == 1

        runner.sweep(mesh, routes, TINY, [1.0])
        assert runner.last_report.cache_hits == 1

    def test_equal_but_distinct_objects_share_one_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(workers=1, cache=cache)
        specs = {}
        for name in ("a", "b"):
            mesh, _, routes = self._subject()
            specs[name] = SweepSpec(mesh, routes, TINY, [1.0])
        assert specs["a"].route_set is not specs["b"].route_set
        results = runner.sweep_many(specs)
        assert len(list(cache.keys())) == 1
        assert results["a"].statistics == results["b"].statistics
        mesh, _, routes = self._subject()
        runner.sweep(mesh, routes, dataclasses.replace(TINY), [1.0])
        assert runner.last_report.cache_hits == 1

    def test_nothing_is_left_on_the_indexed_objects(self, tmp_path):
        mesh, flows, routes = self._subject()
        before = [set(vars(thing)) for thing in (mesh, flows, routes)]
        runner = ExperimentRunner(workers=1, cache=str(tmp_path))
        runner.sweep(mesh, routes, TINY, [0.5, 1.0])
        assert [set(vars(thing)) for thing in (mesh, flows, routes)] == before

    def test_the_memo_does_not_outlive_the_call(self, tmp_path):
        mesh, flows, routes = self._subject()
        runner = ExperimentRunner(workers=1, cache=str(tmp_path))
        runner.sweep(mesh, routes, TINY, [1.0])
        alive = weakref.ref(routes)
        del mesh, flows, routes
        gc.collect()
        assert alive() is None, "the runner still references the route set"
