"""repro: Application-Aware Deadlock-Free Oblivious Routing (BSOR).

A reproduction of Kinsy et al.'s bandwidth-sensitive oblivious routing
(BSOR, ISCA 2009) for networks-on-chip.  The package is organised as a
pipeline of layers, each importable on its own:

* :mod:`repro.topology` — meshes, tori, rings and their directed channels;
* :mod:`repro.traffic` — flow sets: synthetic patterns, the paper's
  profiled applications, and run-time bandwidth variation models;
* :mod:`repro.workloads` — the application-aware workload plane:
  :class:`AppGraph` task graphs with mesh/torus placement, a workload
  registry (``decoder-pipeline``, ``fft-butterfly``, ...), injection-trace
  capture with bit-identical replay, and bursty/hotspot modulation;
* :mod:`repro.cdg` / :mod:`repro.flowgraph` — acyclic channel-dependence
  graphs (turn models, ad hoc cycle breaking, VC expansion) and the flow
  networks derived from them;
* :mod:`repro.routing` — the BSOR framework (MILP and Dijkstra selectors)
  and the baseline oblivious routers (XY/YX DOR, ROMM, Valiant, O1TURN);
* :mod:`repro.planning` — the one route-planning funnel every front end
  obtains its routes from (``plan_routes``, ``router_for``);
* :mod:`repro.simulator` — a cycle-accurate wormhole virtual-channel NoC
  simulator with a flat-array fast path;
* :mod:`repro.runner` — the parallel experiment engine: multi-process
  injection-rate sweeps with a content-addressed on-disk result cache
  (:class:`ExperimentRunner`, :class:`ResultCache`);
* :mod:`repro.compare` — the unified routing comparison: adaptive
  saturation-throughput search over a (topology x pattern x router)
  matrix, driven by the routing registry and the runner (the engine of
  ``saturate`` scenarios and ``python -m repro compare``);
* :mod:`repro.experiments` / :mod:`repro.metrics` — the figure and table
  of tables that regenerate the evaluation chapter (figures are sweep
  scenarios, tables are route plans), and the statistics containers;
* :mod:`repro.study` — the declarative front door: serializable
  :class:`Study` specs (YAML/JSON or fluent Python) executed through one
  path into a tagged, queryable :class:`ResultSet` — the one result
  container and the one set of table writers;
* :mod:`repro.cli` — the unified command line, ``python -m repro``
  (``run`` / ``compare`` / ``figure`` / ``table`` / ``sweep`` /
  ``cache`` / ``profile`` / ``list`` / ``validate``).

Quick start::

    from repro import Mesh2D, transpose, BSORRouting, XYRouting

    mesh = Mesh2D(8)
    flows = transpose(mesh.num_nodes, demand=75.0)
    bsor = BSORRouting(selector="dijkstra")
    routes = bsor.compute_routes(mesh, flows)
    print("BSOR MCL:", routes.max_channel_load())
    print("XY   MCL:", XYRouting().compute_routes(mesh, flows).max_channel_load())

Running a declarative study (the same thing ``python -m repro run`` does)::

    from repro import Study

    study = (Study("saturation")
             .grid(routers=["dor", "o1turn", "bsor-dijkstra"],
                   patterns=["transpose"])
             .saturate(max_rate=8.0))
    result = study.run(workers=4)
    print(result.results.to_markdown())

Sweeping with the parallel runner directly::

    from repro import ExperimentRunner, SimulationConfig

    runner = ExperimentRunner(workers=4, cache=True)
    result = runner.sweep(
        mesh, routes, SimulationConfig(), offered_rates=[0.5, 1.0, 2.0],
    )
    print(result.curve.throughputs)
"""

from .cdg import (
    ChannelDependenceGraph,
    TurnModel,
    ad_hoc_cdg,
    dor_cdg,
    turn_model_cdg,
)
from .exceptions import (
    CDGError,
    CyclicCDGError,
    DeadlockError,
    ExperimentError,
    FaultError,
    ReproError,
    RoutingError,
    SimulationError,
    SolverError,
    StudyError,
    TableError,
    TopologyError,
    TrafficError,
    UnroutableFlowError,
)
from .faults import (
    FailureSchedule,
    FaultSet,
    LinkFault,
    RoutePlan,
    RouterFault,
    route_with_faults,
)
from .compare import (
    CompareMatrix,
    SaturationCriteria,
    SaturationSearch,
    find_saturation,
)
from .flowgraph import ChannelCapacities, FlowGraph
from .metrics import (
    SimulationStatistics,
    SweepCurve,
    SweepPoint,
    load_report,
    maximum_channel_load,
)
from .routing import (
    BSORRouting,
    DijkstraSelector,
    MILPSelector,
    O1TurnRouting,
    ROMMRouting,
    Route,
    RouteSet,
    RouterSpec,
    RoutingAlgorithm,
    ValiantRouting,
    XYRouting,
    YXRouting,
    available_routers,
    bsor_dijkstra,
    bsor_milp,
    check_deadlock_freedom,
    create_router,
    paper_strategies,
    register_router,
    router_spec,
)
from .runner import ExperimentRunner, ResultCache, simulation_cache_key
from .study import (
    ExecutionPolicy,
    ResultSet,
    Scenario,
    Study,
    StudyResult,
    run_study,
)
from .simulator import (
    FastSimulator,
    NetworkSimulator,
    SimulationConfig,
    available_backends,
    backend_spec,
    create_simulator,
    register_backend,
)
from .workloads import (
    AppGraph,
    BurstyInjection,
    HotspotInjection,
    InjectionTrace,
    TraceInjectionProcess,
    available_workloads,
    capture_simulation,
    create_workload,
    register_workload,
    replay_simulation,
    workload_spec,
)
from .topology import Channel, Direction, Mesh2D, Ring, Topology, Torus2D, VirtualChannel
from .traffic import (
    Flow,
    FlowSet,
    application_by_name,
    bit_complement,
    h264_decoder,
    map_onto_mesh,
    performance_modeling,
    shuffle,
    synthetic_by_name,
    transpose,
    wlan_transmitter,
)

__version__ = "1.0.0"

__all__ = [
    "AppGraph",
    "BSORRouting",
    "BurstyInjection",
    "CompareMatrix",
    "CDGError",
    "Channel",
    "ChannelCapacities",
    "ChannelDependenceGraph",
    "CyclicCDGError",
    "DeadlockError",
    "DijkstraSelector",
    "Direction",
    "ExecutionPolicy",
    "ExperimentError",
    "ExperimentRunner",
    "FailureSchedule",
    "FastSimulator",
    "FaultError",
    "FaultSet",
    "Flow",
    "FlowGraph",
    "FlowSet",
    "HotspotInjection",
    "InjectionTrace",
    "LinkFault",
    "MILPSelector",
    "Mesh2D",
    "NetworkSimulator",
    "O1TurnRouting",
    "ROMMRouting",
    "ReproError",
    "ResultCache",
    "ResultSet",
    "Ring",
    "Route",
    "RoutePlan",
    "RouteSet",
    "RouterFault",
    "RouterSpec",
    "RoutingAlgorithm",
    "RoutingError",
    "SaturationCriteria",
    "SaturationSearch",
    "Scenario",
    "SimulationConfig",
    "SimulationError",
    "SimulationStatistics",
    "SolverError",
    "Study",
    "StudyError",
    "StudyResult",
    "SweepCurve",
    "SweepPoint",
    "TableError",
    "Topology",
    "TopologyError",
    "Torus2D",
    "TraceInjectionProcess",
    "TrafficError",
    "TurnModel",
    "UnroutableFlowError",
    "ValiantRouting",
    "VirtualChannel",
    "XYRouting",
    "YXRouting",
    "ad_hoc_cdg",
    "available_backends",
    "available_routers",
    "available_workloads",
    "application_by_name",
    "backend_spec",
    "bit_complement",
    "bsor_dijkstra",
    "bsor_milp",
    "capture_simulation",
    "check_deadlock_freedom",
    "create_router",
    "create_simulator",
    "create_workload",
    "dor_cdg",
    "find_saturation",
    "h264_decoder",
    "load_report",
    "map_onto_mesh",
    "maximum_channel_load",
    "paper_strategies",
    "performance_modeling",
    "register_backend",
    "register_router",
    "register_workload",
    "replay_simulation",
    "route_with_faults",
    "router_spec",
    "run_study",
    "shuffle",
    "simulation_cache_key",
    "synthetic_by_name",
    "transpose",
    "turn_model_cdg",
    "wlan_transmitter",
    "workload_spec",
    "__version__",
]
