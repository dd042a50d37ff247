"""Cache keys spliced from canonical fragments are the whole-payload keys.

:func:`~repro.runner.fingerprint.simulation_cache_key` and
:func:`~repro.runner.fingerprint.batch_group_key` build their SHA-256 input
by joining per-input fragments (topology, flow set, route set, boundaries,
fault schedule, configuration) — the big three kept on the topology, flow
set and route set until one of their mutators runs — instead of serialising
one whole payload per point.  Every cache directory in existence was filled under the
whole-payload construction, so this file pins the equivalence from four
sides:

(a) a hypothesis campaign against the **oracle** — the whole-payload
    construction as it stood before the splice, kept here (and only here)
    verbatim — over topologies, routers, every configuration field, rates,
    boundaries and fault schedules, each key asked for twice (rendered,
    then kept);
(b) literal digests recorded before the splice
    (``golden/simulation_point_keys.json``);
(c) a render count: the topology, flow set and route set are rendered
    once however many keys and sweeps use them;
(d) kept fragments follow their sources: every mutator moves the key to
    the oracle's key of a freshly built equal object, a route set's
    algorithm is fixed at construction, and equal-but-distinct objects
    share a key.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
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
    PLAN_SCHEMA_VERSION,
    batch_group_key,
    route_plan_key,
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
        for config, rate in points:
            expected = oracle_cache_key(topology, route_set, config, rate,
                                        boundaries, schedule)
            group = oracle_group_key(topology, route_set, config,
                                     boundaries, schedule)
            for _ in range(2):  # rendered (or not yet), then kept
                assert simulation_cache_key(
                    topology, route_set, config, rate, boundaries,
                    fault_schedule=schedule) == expected
                assert batch_group_key(topology, route_set, config,
                                       boundaries,
                                       fault_schedule=schedule) == group

    def test_route_plan_keys_are_the_whole_payload_digest(self):
        for name in ("dor", "torus", "ring"):
            topology, route_set, _ = _subjects()[name]
            options = {"seed": 3, "strategies": ["north-last"]}
            for _ in range(2):  # rendered, then kept
                assert route_plan_key(topology, route_set.flow_set, name,
                                      options, "link:5-6") == \
                    _oracle_digest({
                        "schema": PLAN_SCHEMA_VERSION,
                        "topology": _oracle_payload(
                            topology, route_set, QUICK.simulation, None,
                            None)["topology"],
                        "flows": [(flow.name, flow.source, flow.destination,
                                   float(flow.demand))
                                  for flow in route_set.flow_set],
                        "router": name,
                        "options": options,
                        "faults": "link:5-6",
                    })

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
# (b) literal digests recorded before the splice
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
# (c) the big shared inputs are rendered once
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


def _rendered_once(renders, configs):
    """The big fragments were rendered once; the configuration (a dozen
    fields, cheap) once per key asked for."""
    return renders == {"topology_fingerprint": 1,
                       "flow_set_fingerprint": 1,
                       "route_set_fingerprint": 1,
                       "config_fingerprint": configs}


class TestTheBigSharedInputsAreRenderedOnce:
    def test_four_vc_counts_by_three_rates(self, tmp_path, renders):
        runner = ExperimentRunner(workers=1, cache=str(tmp_path))
        runner.sweep_many(_vc_sweep())
        assert runner.last_report.points_total == 12
        assert _rendered_once(renders, 12)

    def test_group_keys_share_the_point_keys_fragments(self, tmp_path,
                                                       renders):
        pytest.importorskip("numpy")
        runner = ExperimentRunner(workers=1, cache=str(tmp_path))
        runner.sweep_many(_vc_sweep(backend="batch"))
        assert runner.last_report.batch_groups == 1
        # twelve point keys plus twelve group keys
        assert _rendered_once(renders, 24)

    def test_standalone_calls_render_each_input_once(self, renders):
        spec = next(iter(_vc_sweep().values()))
        for rate in (0.5, 1.0, 2.0):
            simulation_cache_key(spec.topology, spec.route_set, spec.config,
                                 rate)
        assert _rendered_once(renders, 3)

    def test_the_next_sweep_renders_nothing_again(self, tmp_path, renders):
        """A saturation search calls ``sweep_many`` once per round on the
        same planned inputs: only the first round renders them."""
        runner = ExperimentRunner(workers=1, cache=str(tmp_path))
        specs = _vc_sweep()
        for _ in range(3):
            runner.sweep_many(specs)
        assert _rendered_once(renders, 3 * 12)


# ----------------------------------------------------------------------
# (d) kept fragments follow their sources
# ----------------------------------------------------------------------
def _pair_subject(algorithm="hand", routed=2, extra_flow=False,
                  extra_channel=False, removed_channel=False):
    """A mesh, a flow set and a route set built from scratch.  The flags
    build, in one go, what a mutator turns the default subject into."""
    mesh = Mesh2D(4)
    if extra_channel:
        mesh._add_channel(0, 5)
    if removed_channel:
        mesh._remove_channel(mesh.channel(9, 10))
    flows = FlowSet(name="pair")
    routes = RouteSet(mesh, flows, algorithm=algorithm)
    paths = [(0, 3, [0, 1, 2, 3]), (12, 4, [12, 8, 4])]
    for index, (source, destination, path) in enumerate(paths):
        flow = flows.add_flow(source, destination, 1.0)
        if index < routed:
            routes.add_node_path(flow, path)
    if extra_flow:
        flows.add_flow(5, 7, 2.0)
    return mesh, flows, routes


class TestKeptFragmentsFollowTheirSources:
    @staticmethod
    def _key(mesh, routes):
        return simulation_cache_key(mesh, routes, TINY, 1.0)

    @staticmethod
    def _oracle(mesh, routes):
        return oracle_cache_key(mesh, routes, TINY, 1.0)

    def test_route_set_add(self):
        mesh, flows, routes = _pair_subject(routed=1)
        before = self._key(mesh, routes)
        routes.add_node_path(flows[1], [12, 8, 4])
        fresh_mesh, _, fresh_routes = _pair_subject(routed=2)
        assert self._key(mesh, routes) == \
            self._oracle(fresh_mesh, fresh_routes) != before

    def test_flow_set_add(self):
        mesh, flows, routes = _pair_subject()
        before = self._key(mesh, routes)
        flows.add_flow(5, 7, 2.0)
        fresh_mesh, _, fresh_routes = _pair_subject(extra_flow=True)
        assert self._key(mesh, routes) == \
            self._oracle(fresh_mesh, fresh_routes) != before

    def test_topology_add_channel(self):
        mesh, _, routes = _pair_subject()
        before = self._key(mesh, routes)
        mesh._add_channel(0, 5)
        fresh_mesh, _, fresh_routes = _pair_subject(extra_channel=True)
        assert self._key(mesh, routes) == \
            self._oracle(fresh_mesh, fresh_routes) != before

    def test_topology_remove_channel_on_a_degraded_copy(self):
        """``without_channels`` copies the topology, kept fragment
        included; the removal on the copy must drop it."""
        mesh, _, routes = _pair_subject()
        before = self._key(mesh, routes)
        degraded = mesh.without_channels([mesh.channel(9, 10)])
        fresh_mesh, _, fresh_routes = _pair_subject(removed_channel=True)
        assert self._key(degraded, routes) == \
            self._oracle(fresh_mesh, fresh_routes) != before
        assert self._key(mesh, routes) == before

    def test_a_route_sets_algorithm_is_fixed_at_construction(self):
        _, _, routes = _pair_subject()
        with pytest.raises(AttributeError):
            routes.algorithm = "renamed"
        assert routes.algorithm == "hand"

    def test_mutations_between_calls_change_the_keys(self, tmp_path):
        mesh, flows, routes = _pair_subject()
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(workers=1, cache=cache)
        runner.sweep(mesh, routes, TINY, [1.0])
        assert runner.last_report.points_simulated == 1
        first = set(cache.keys())
        assert first == {simulation_cache_key(mesh, routes, TINY, 1.0)}

        renamed = _pair_subject(algorithm="renamed")[2]
        runner.sweep(mesh, renamed, TINY, [1.0])
        assert runner.last_report.points_simulated == 1
        second = set(cache.keys()) - first
        assert second == {simulation_cache_key(mesh, renamed, TINY, 1.0)}

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
            mesh, _, routes = _pair_subject()
            specs[name] = SweepSpec(mesh, routes, TINY, [1.0])
        assert specs["a"].route_set is not specs["b"].route_set
        results = runner.sweep_many(specs)
        assert len(list(cache.keys())) == 1
        assert results["a"].statistics == results["b"].statistics
        mesh, _, routes = _pair_subject()
        runner.sweep(mesh, routes, dataclasses.replace(TINY), [1.0])
        assert runner.last_report.cache_hits == 1
