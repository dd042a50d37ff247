"""The per-layer numbers of a traced run.

Two sources, kept apart because they answer different questions:

* :func:`cycle_metrics` reads the spans of the workload's own traced cycle —
  *where did this workload's time go*: each layer's share of the cold and of
  the warm pass, and the counts made at the layer boundaries.
* :func:`probe_metrics` replays the pipeline on fixed inputs, calling each
  layer's public functions in pipeline order — *what does one operation of
  this layer cost*.  The inputs do not depend on the workload, so these
  numbers are comparable across all five traced runs; every metric with a
  time unit comes from here.

Layer metric -> end-to-end metric it should move is tabulated in README.md.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List

from cases import (Cycle, ServeCase, WorkArea, cache_totals, load_spec,
                   start_workers, stop_process)
from gate import Ledger, PlanTap
from records import steady
from spans import LAYERS, Recorder, Span

#: Layers whose share of the cold and warm pass is reported.
SHARE_LAYERS = tuple(layer for layer in LAYERS
                     if layer not in ("topology", "traffic", "report"))

#: The fault sets of ``saturate-faults-4x4`` that actually reroute.
FAULT_SETS = ("link:5-6", "link:5-6,link:9-10",
              "link:5-6,link:9-10,link:1-2,link:13-14@600")


def timed(function: Callable[[], object], repeats: int) -> List[float]:
    """Seconds of each of *repeats* calls of *function*."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        samples.append(time.perf_counter() - started)
    return samples


def steady_of(function: Callable[[], object], repeats: int) -> float:
    return steady(timed(function, repeats))


def repeats_at(scale: str, repeats: int) -> int:
    """Smoke runs exist to exercise the code, not to steady a median."""
    return 1 if scale == "smoke" else repeats


def percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


# ----------------------------------------------------------------------
# the workload's own traced cycle
# ----------------------------------------------------------------------
def _shares(recorder: Recorder, roots: List[Span]) -> Dict[str, float]:
    """Each layer's self time over *roots* as a share of their wall time."""
    wall = sum(root.duration for root in roots)
    totals: Dict[str, float] = {}
    for root in roots:
        for layer, seconds in recorder.layer_self_times(root).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return {layer: (seconds / wall if wall else 0.0)
            for layer, seconds in totals.items()}


def cycle_metrics(recorder: Recorder, traced: Cycle,
                  untraced: Cycle) -> Dict[str, float]:
    """Shares and counts of the workload's traced cycle."""
    cold = _shares(recorder, traced.cold_roots)
    warm = _shares(recorder, traced.warm_roots)
    metrics: Dict[str, float] = {}
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.cold_share"] = cold.get(layer, 0.0)
        metrics[f"{layer}.warm_share"] = warm.get(layer, 0.0)

    cold_spans = [span for root in traced.cold_roots
                  for span in recorder.children_of(root)]
    # O1TURN plans by calling two DOR planners: count the outer call only
    metrics["routing.plans"] = sum(
        1 for span in cold_spans if span.name == "routing.plan"
        and recorder.spans[span.parent].name != "routing.plan")
    metrics["queue.tasks"] = sum(
        1 for span in cold_spans if span.name == "queue.submit")
    metrics["queue.reclaims"] = sum(
        span.args.get("result", 0) for span in cold_spans
        if span.name == "queue.reclaim")

    hits, misses = traced.counts["hits"], traced.counts["misses"]
    metrics["cache.hits"] = hits
    metrics["cache.misses"] = misses
    metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    metrics["engine.batch_groups"] = traced.counts["batch_groups"]
    metrics["progress.events"] = traced.counts["events"]
    metrics["sim.points"] = traced.simulated["points"]
    metrics["sim.cycles"] = traced.simulated["cycles"]
    metrics["sim.flits_delivered"] = traced.simulated["flits"]
    saturate_rows = [row for row in traced.rows
                     if row.get("mode") == "saturate"]
    metrics["saturation.cells"] = len(saturate_rows)
    metrics["saturation.probes"] = sum(row["sim_points"]
                                       for row in saturate_rows)

    def wall(cycle: Cycle) -> float:
        return sum(cycle.cold_s) + sum(cycle.warm_s)

    metrics["trace.overhead_ratio"] = wall(traced) / wall(untraced)
    roots = traced.cold_roots + traced.warm_roots
    unnamed = sum(recorder.self_times(root)[root.index] for root in roots)
    metrics["trace.coverage"] = 1.0 - unnamed / sum(root.duration
                                                    for root in roots)
    return metrics


# ----------------------------------------------------------------------
# the fixed-input replay
# ----------------------------------------------------------------------
def _probe_spec(scale: str, seed: int) -> Dict:
    """One 12-lane batch group: figure 6-7's axes under one router."""
    smoke = scale == "smoke"
    return {
        "name": "layer-probe",
        "profile": "quick" if smoke else "default",
        "workers": 1,
        "scenarios": [{
            "name": "probe",
            "topologies": ["mesh4x4" if smoke else "mesh8x8"],
            "patterns": ["transpose"], "routers": ["dor"],
            "vcs": [1, 2] if smoke else [1, 2, 4, 8],
            "rates": [1.0, 2.5] if smoke else [1.0, 2.5, 5.0],
            "seed": seed,
        }],
    }


def probe_metrics(recorder: Recorder, area: WorkArea, ledger: Ledger,
                  scale: str, seed: int) -> Dict[str, float]:
    """Replay the pipeline layer by layer on fixed inputs.

    Must run inside ``spans.instrument(recorder)``: the engine, cache and
    solver numbers are read from the spans the instrumented program emits.
    """
    metrics: Dict[str, float] = {}
    with recorder.span("probes"):
        study, result, cache_dir, local_wall = _probe_study(
            recorder, area, ledger, scale, seed, metrics)
        _probe_planning(recorder, ledger, result.config, scale, seed, metrics)
        _probe_cache(area, cache_dir, metrics)
        _probe_kernels(result, cache_dir, ledger, scale, metrics)
        _probe_saturation(scale, metrics)
        _probe_queue(area, ledger, study, result, local_wall, metrics)
        _probe_serve(recorder, area, ledger, scale, seed, metrics)
    return metrics


def _probe_study(recorder, area, ledger, scale, seed, metrics):
    """study -> engine -> fingerprint -> cache -> simulator -> report."""
    from repro.report import occupancy_heatmap, render_report
    from repro.study.execute import resolve_config, run_study
    from repro.study.spec import Study

    spec = _probe_spec(scale, seed)
    text = json.dumps(spec, indent=2)
    cache_dir = area.fresh("probe-cache")
    metrics["study.parse_ms"] = 1e3 * steady_of(
        lambda: Study.from_dict(json.loads(text)), 20)
    study = Study.from_dict(json.loads(text))
    metrics["study.resolve_config_ms"] = 1e3 * steady_of(
        lambda: resolve_config(study, cache_dir=cache_dir), 50)

    with recorder.span("probe.study.cold") as cold:
        result = run_study(study, cache_dir=cache_dir)
    document = result.to_json()
    with recorder.span("probe.study.warm"):
        again = run_study(study, cache_dir=cache_dir)
    ledger.check(again.to_json() == document and
                 again.report.points_simulated == 0,
                 "probe study: warm re-run differs from the cold run")

    self_times = recorder.self_times(cold)
    cold_spans = recorder.children_of(cold)
    metrics["engine.overhead_ms"] = 1e3 * sum(
        self_times[span.index] for span in cold_spans
        if span.name == "engine.sweep_many")
    simulate_s = sum(span.duration for span in cold_spans
                     if span.name == "sim.run_task")
    metrics["sim.fast.cycles_per_s"] = \
        cache_totals(cache_dir)["cycles"] / simulate_s
    entries = [path for path in Path(cache_dir).glob("*.json")
               if not path.name.startswith(".")]
    metrics["cache.bytes_per_entry"] = statistics.mean(
        path.stat().st_size for path in entries)

    metrics["study.assemble_ms"] = 1e3 * steady_of(result.to_json, 10)
    metrics["study.render_md_ms"] = 1e3 * steady_of(result.render_markdown,
                                                    10)
    metadata = {"study": study.to_dict()}
    page = render_report(result.results, metadata=metadata)
    metrics["report.bytes"] = len(page.encode())
    metrics["report.render_ms"] = 1e3 * steady_of(
        lambda: render_report(result.results, metadata=metadata), 5)
    scenario = spec["scenarios"][0]
    metrics["report.heatmap_ms"] = 1e3 * steady_of(
        lambda: occupancy_heatmap(scenario["topologies"][0], "transpose",
                                  "dor", 2.5, config=result.config), 3)
    return study, result, cache_dir, cold.duration


def _probe_planning(recorder, ledger, config, scale, seed, metrics):
    """topology -> traffic -> cdg -> flowgraph -> routing -> faults."""
    from repro.compare.matrix import parse_topology, pattern_flow_set
    from repro.faults import route_with_faults
    from repro.flowgraph import FlowGraph
    from repro.routing.bsor.framework import paper_strategies
    from repro.routing.deadlock import analyze_virtual_networks
    from repro.routing.registry import create_router
    from repro.runner.fingerprint import (batch_group_key,
                                          simulation_cache_key)
    from repro.simulator.simulation import phase_boundaries_for

    name = "mesh4x4" if scale == "smoke" else "mesh8x8"
    metrics["topology.build_ms"] = 1e3 * steady_of(
        lambda: parse_topology(name), 20)
    topology = parse_topology(name)
    metrics["traffic.flowset_ms"] = 1e3 * steady_of(
        lambda: pattern_flow_set("transpose", topology, config), 20)
    flows = pattern_flow_set("transpose", topology, config)

    build_s, check_s, graph_s = [], [], []
    cdg_vertices, cdg_edges, graph_vertices, graph_edges = [], [], [], []
    for strategy in paper_strategies():
        started = time.perf_counter()
        cdg = strategy.build(topology, 1)
        build_s.append(time.perf_counter() - started)
        check_s.extend(timed(cdg.is_acyclic, 1))
        started = time.perf_counter()
        graph = FlowGraph(cdg)
        graph.add_flow_terminals(flows)
        graph_s.append(time.perf_counter() - started)
        cdg_vertices.append(cdg.num_vertices)
        cdg_edges.append(cdg.num_edges)
        graph_vertices.append(graph.num_vertices)
        graph_edges.append(graph.num_edges)
    metrics["cdg.build_ms"] = 1e3 * statistics.mean(build_s)
    metrics["cdg.acyclic_check_ms"] = 1e3 * statistics.mean(check_s)
    metrics["cdg.vertices"] = statistics.mean(cdg_vertices)
    metrics["cdg.edges"] = statistics.mean(cdg_edges)
    metrics["flowgraph.build_ms"] = 1e3 * statistics.mean(graph_s)
    metrics["flowgraph.vertices"] = statistics.mean(graph_vertices)
    metrics["flowgraph.edges"] = statistics.mean(graph_edges)

    options = {"seed": seed, "hop_slack": config.hop_slack,
               "milp_time_limit": config.milp_time_limit}
    check_s = []
    planned = {}

    def plan(router_name: str) -> None:
        router = create_router(router_name, **options)
        route_set = router.compute_routes(topology, flows)
        planned[router_name] = (router, route_set)

    for router_name in ("dor", "o1turn", "romm", "valiant"):
        metrics[f"routing.{router_name}.plan_ms"] = 1e3 * steady_of(
            lambda: plan(router_name), 5)
    metrics["routing.bsor-dijkstra.plan_s"] = steady_of(
        lambda: plan("bsor-dijkstra"), 1)
    tap = PlanTap()
    with tap.installed(), recorder.span("probe.plan.milp") as milp_root:
        plan("bsor-milp")
    metrics["routing.bsor-milp.plan_s"] = milp_root.duration
    metrics["routing.bsor-milp.solve_s"] = sum(
        span.duration for span in recorder.children_of(milp_root)
        if span.name == "routing.milp.solve")
    solutions = [solution for solution in tap.solutions
                 if solution is not None]
    metrics["routing.bsor-milp.variables"] = sum(
        solution.num_variables for solution in solutions)
    metrics["routing.bsor-milp.constraints"] = sum(
        solution.num_constraints for solution in solutions)
    metrics["routing.bsor-milp.mip_gap"] = max(
        (solution.mip_gap or 0.0 for solution in solutions), default=0.0)
    nonoptimal = len(tap.solutions) - sum(
        1 for solution in solutions if solution.optimal)
    metrics["routing.bsor-milp.nonoptimal"] = nonoptimal
    ledger.check(nonoptimal == 0,
                 f"probe: {nonoptimal} MILP solve(s) ended non-optimal")

    for router_name, (router, route_set) in planned.items():
        boundaries = phase_boundaries_for(router, route_set) or {}
        started = time.perf_counter()
        report = analyze_virtual_networks(route_set, boundaries)
        check_s.append(time.perf_counter() - started)
        ledger.check(report.deadlock_free,
                     f"probe: {router_name} routes are not deadlock free: "
                     f"{report.detail}")
    metrics["routing.deadlock_check_ms"] = 1e3 * steady(check_s)

    small = parse_topology("mesh4x4")
    small_flows = pattern_flow_set("transpose", small, config)
    metrics["faults.reroute_ms"] = 1e3 * statistics.median(
        steady_of(lambda: route_with_faults(
            create_router("bsor-dijkstra", **options), small, small_flows,
            faults), 1)
        for faults in FAULT_SETS)

    _, routes = planned["dor"]
    simulation = config.simulation
    metrics["fingerprint.cache_key_us"] = 1e6 * steady_of(
        lambda: simulation_cache_key(topology, routes, simulation, 2.5), 20)
    metrics["fingerprint.group_key_us"] = 1e6 * steady_of(
        lambda: batch_group_key(topology, routes, simulation), 20)


def _probe_cache(area, cache_dir, metrics):
    """put, local hit, miss, and shared-tier read-through with write-back."""
    from repro.runner.cache import ResultCache

    filled = ResultCache(cache_dir)
    value = filled.get(next(iter(filled.keys())))
    keys = [f"probe-{index:03d}" for index in range(50)]

    def over_keys(operation: Callable[[str], object]) -> float:
        order = iter(keys)
        return 1e6 * steady(
            timed(lambda: operation(next(order)), len(keys)))

    first = ResultCache(area.fresh("probe-tier"))
    metrics["cache.put_us"] = over_keys(lambda key: first.put(key, value))
    metrics["cache.get_hit_us"] = over_keys(first.get)
    metrics["cache.get_miss_us"] = over_keys(
        lambda key: first.get("absent-" + key))
    layered = ResultCache(area.fresh("probe-local"),
                          shared_dir=first.directory)
    metrics["cache.shared_readthrough_us"] = over_keys(layered.get)
    if layered.shared_hits != len(keys):
        raise RuntimeError("shared-tier probe did not read through")


def _probe_kernels(result, cache_dir, ledger, scale, metrics):
    """The probe study's 12-lane group on every kernel, lane for lane."""
    from repro.compare.matrix import parse_topology, pattern_flow_set
    from repro.routing.registry import create_router
    from repro.runner.cache import ResultCache
    from repro.runner.fingerprint import simulation_cache_key
    from repro.simulator.simulation import (simulate_route_set,
                                            simulate_route_set_batch)

    scenario = result.study.scenarios[0]
    config = result.config
    topology = parse_topology(scenario.topologies[0])
    flows = pattern_flow_set("transpose", topology, config)
    routes = create_router("dor").compute_routes(topology, flows)
    points = [(config.simulation.with_vcs(vcs), rate)
              for vcs in scenario.vcs for rate in scenario.rates]
    cycles = sum(simulation.warmup_cycles + simulation.measurement_cycles
                 for simulation, _ in points)

    # the fast kernel's results are the ones the probe study cached
    cache = ResultCache(cache_dir)
    fast = [cache.get(simulation_cache_key(topology, routes, simulation,
                                           rate))
            for simulation, rate in points]
    started = time.perf_counter()
    reference = [simulate_route_set(topology, routes, simulation, rate,
                                    backend="reference")
                 for simulation, rate in points]
    metrics["sim.reference.cycles_per_s"] = \
        cycles / (time.perf_counter() - started)
    started = time.perf_counter()
    batch = simulate_route_set_batch(topology, routes, points,
                                     backend="batch")
    metrics["sim.batch.cycles_per_s"] = \
        cycles / (time.perf_counter() - started)
    identical = fast == reference == batch
    metrics["sim.bit_identical"] = 1 if identical else 0
    ledger.check(identical, "probe: the three kernels disagree on the "
                            "12-lane group")

    # one point at a time, the way a saturation search drives the kernel
    from repro.experiments.config import ExperimentConfig

    quick = ExperimentConfig.from_profile("quick")
    small = parse_topology("mesh4x4")
    small_routes = create_router("dor").compute_routes(
        small, pattern_flow_set("transpose", small, quick))
    simulation = quick.simulation
    lane_cycles = simulation.warmup_cycles + simulation.measurement_cycles
    metrics["sim.fast.lane1_cycles_per_s"] = lane_cycles / steady_of(
        lambda: simulate_route_set(small, small_routes, simulation, 1.0,
                                   backend="fast"), repeats_at(scale, 5))
    metrics["sim.batch.lane1_cycles_per_s"] = lane_cycles / steady_of(
        lambda: simulate_route_set_batch(small, small_routes,
                                         [(simulation, 1.0)],
                                         backend="batch"),
        repeats_at(scale, 5))


def _probe_saturation(scale, metrics):
    """One adaptive saturation search: mesh4x4, transpose, dor, uncached."""
    from repro.compare.matrix import CompareMatrix
    from repro.experiments.config import ExperimentConfig
    from repro.runner.engine import ExperimentRunner

    def search() -> None:
        CompareMatrix(config=ExperimentConfig.from_profile("quick"),
                      runner=ExperimentRunner(workers=1, cache=None)
                      ).run(["mesh4x4"], ["transpose"], ["dor"])

    metrics["saturation.search_s"] = steady_of(search, repeats_at(scale, 3))


def _probe_queue(area, ledger, study, result, local_wall, metrics):
    """Queue primitives in-process, then the probe study on two workers."""
    from repro.runner.workqueue import WorkQueue
    from repro.study.execute import run_study

    queue = WorkQueue(area.fresh("probe-queue"))
    submit_s, claim_s, roundtrip_s = [], [], []
    for _ in range(30):
        started = time.perf_counter()
        task_id = queue.submit("scalar", ("no-op",), [])
        submitted = time.perf_counter()
        claimed = queue.claim()
        claimed_at = time.perf_counter()
        claimed.complete([])
        outcome = queue.take_result(task_id)
        roundtrip_s.append(time.perf_counter() - started)
        submit_s.append(submitted - started)
        claim_s.append(claimed_at - submitted)
        if outcome is None or not outcome.ok:
            raise RuntimeError("work-queue round trip lost its result")
    metrics["queue.submit_us"] = 1e6 * steady(submit_s)
    metrics["queue.claim_us"] = 1e6 * steady(claim_s)
    metrics["queue.roundtrip_ms"] = 1e3 * steady(roundtrip_s)

    queue_dir = area.fresh("probe-queue-2w")
    workers, startup_s = start_workers(area, queue_dir, 2)
    try:
        metrics["queue.worker_startup_s"] = startup_s
        started = time.perf_counter()
        queued = run_study(study, cache_dir=area.fresh("probe-queue-cache"),
                           execution="queue", queue_dir=queue_dir, workers=2)
        queue_wall = time.perf_counter() - started
    finally:
        for process in workers:
            stop_process(process)
    ledger.check(queued.to_json() == result.to_json(),
                 "probe: queue execution differs from local execution")
    # base: the same study on the local backend with one worker
    metrics["queue.speedup_vs_local"] = local_wall / queue_wall


def _probe_serve(recorder, area, ledger, scale, seed, metrics):
    """A second server, so every traced run measures the front door."""
    smoke = scale == "smoke"
    case = ServeCase("serve-probe", load_spec("serve-closed-loop", scale,
                                              seed), seed,
                     cold_submits=2 if smoke else 5,
                     warm_submits=10 if smoke else 300,
                     area=area, ledger=ledger)
    try:
        case.setup()
        cycle = case.cycle(recorder)
    finally:
        case.teardown()
    metrics["serve.startup_s"] = case.startup_s
    for part in ("submit", "wait", "fetch"):
        metrics[f"serve.{part}_ms"] = 1e3 * steady(
            span.duration for root in cycle.warm_roots
            for span in recorder.children_of(root)
            if span.name == f"serve.{part}")
    metrics["serve.warm_p95_ms"] = 1e3 * percentile(cycle.warm_s, 0.95)
    metrics["serve.warm_p99_ms"] = 1e3 * percentile(cycle.warm_s, 0.99)
    metrics["serve.warm_studies_per_s"] = \
        len(cycle.warm_s) / cycle.warm_phase_s
    metrics["serve.events_per_job"] = \
        cycle.counts["events"] / len(cycle.cold_s)
