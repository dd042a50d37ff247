"""The figure / table / sweep / cache / profile subcommands.

Each command receives the :class:`~repro.experiments.config.ExperimentConfig`
the shared option set resolves to (:func:`repro.cli.common.experiment_config`)
and drives the parallel :class:`~repro.runner.engine.ExperimentRunner`;
``figure`` and ``sweep`` are in-code scenarios of the study engine.
"""

from __future__ import annotations

import argparse

from ..runner.cache import ResultCache, default_cache_dir
from ..runner.engine import ExperimentRunner
from .common import UsageError, split_names
from .listing import workload_vocabulary


def add_runner_subcommands(commands, common: argparse.ArgumentParser) -> None:
    """Register figure/table/sweep/cache/profile on a subparsers object."""
    workloads = ", ".join(workload_vocabulary())
    figure = commands.add_parser("figure", help="regenerate one figure",
                                 parents=[common])
    figure.add_argument("number", nargs="?", default=None,
                        help="figure number, e.g. 6-1 or 6.7")
    figure.add_argument("--workload", default=None,
                        help="workload for figures 6-7..6-10: one of "
                             f"{workloads} (default: transpose)")
    figure.add_argument("--list-workloads", action="store_true",
                        help="list accepted workloads and exit")

    table = commands.add_parser("table", help="regenerate one MCL table",
                                parents=[common])
    table.add_argument("number", nargs="?", default=None,
                       choices=("6-1", "6-2", "6-3"))

    sweep = commands.add_parser("sweep", help="sweep chosen algorithms",
                                parents=[common])
    sweep.add_argument("--workload", default="transpose",
                       help=f"one of {workloads} (default: %(default)s)")
    sweep.add_argument("--algorithms", default="XY,BSOR-Dijkstra",
                       help="comma-separated routing-registry names or "
                            "aliases (dor/XY, yx, romm, valiant, o1turn, "
                            "bsor-milp, bsor-dijkstra)")
    sweep.add_argument("--rates", default=None,
                       help="comma-separated offered rates (packets/cycle)")
    sweep.add_argument("--list-workloads", action="store_true",
                       help="list accepted workloads and exit")
    sweep.add_argument("--list-routers", action="store_true",
                       help="list registered routing algorithms and exit")

    cache = commands.add_parser("cache", help="inspect or clear the cache",
                                parents=[common])
    cache.add_argument("action", nargs="?", default=None,
                       choices=("info", "stats", "clear"))
    cache.add_argument("--shared-dir", default=None,
                       help="shared second-tier cache directory to inspect "
                            "alongside the local one (default: "
                            "$REPRO_SHARED_CACHE_DIR)")

    prof = commands.add_parser(
        "profile", parents=[common],
        help="cProfile one simulation point (top-20 by cumulative time)")
    prof.add_argument("--workload", default="transpose",
                      help=f"one of {workloads} (default: %(default)s)")
    prof.add_argument("--algorithm", default="XY",
                      help="routing-registry name (default: %(default)s)")
    prof.add_argument("--rate", type=float, default=2.5,
                      help="offered injection rate, packets/cycle "
                           "(default: %(default)s)")
    prof.add_argument("--top", type=int, default=20,
                      help="rows of the profile table (default: %(default)s)")
    prof.add_argument("--list-workloads", action="store_true",
                      help="list accepted workloads and exit")
    prof.add_argument("--list-routers", action="store_true",
                      help="list registered routing algorithms and exit")


def run_figure(args: argparse.Namespace, config,
               runner: ExperimentRunner) -> str:
    from ..experiments.figures import (
        FIGURES,
        normalize_figure_key,
        render_figure,
        run_figure as simulate_figure,
    )

    figure = FIGURES.get(normalize_figure_key(args.number))
    if figure is not None and figure.workload and args.workload:
        raise UsageError(
            f"figure {args.number} always plots {figure.workload!r}; "
            f"--workload only applies to figures 6-7..6-10"
        )
    return render_figure(args.number, simulate_figure(
        args.number, config, workload=args.workload, runner=runner))


def run_table(args: argparse.Namespace, config,
              runner: ExperimentRunner) -> str:
    from ..experiments.tables import render_table, run_table as plan_table

    return render_table(args.number, plan_table(
        args.number, config, cache=runner.cache, observer=runner.observer))


def describe_plans(cache) -> str:
    """What a planning-only command did, for its stderr summary."""
    if cache is None:
        return "every plan solved, cache disabled"
    return (f"{cache.plan_hits} plan(s) cached, {cache.plan_misses} solved, "
            f"cache at {cache.directory}")


def run_sweep(args: argparse.Namespace, config,
              runner: ExperimentRunner) -> str:
    from ..experiments.figures import render_curves
    from ..study.execute import run_scenario
    from ..study.spec import Scenario

    rates = ()
    if args.rates:
        try:
            rates = tuple(float(rate) for rate in args.rates.split(","))
        except ValueError:
            raise UsageError(
                f"--rates must be comma-separated numbers, got {args.rates!r}"
            )
    # router names resolve through the routing registry: canonical slugs
    # ("bsor-dijkstra"), aliases ("xy") and display names ("BSOR-Dijkstra")
    # all work, and an unknown name fails with the registered list
    routers = tuple(split_names(args.algorithms))
    if not routers:
        raise UsageError("--algorithms needs at least one routing algorithm")
    scenario = Scenario(name=args.workload, patterns=(args.workload,),
                        routers=routers, rates=rates)
    results, _ = run_scenario(scenario, config, runner)
    return render_curves(results)


def run_profile(args: argparse.Namespace, config) -> str:
    """cProfile one uncached simulation point; returns the top-N table."""
    import cProfile
    import io
    import pstats

    from ..planning import pattern_flow_set, plan_routes
    from ..simulator.backends import backend_spec
    from ..simulator.simulation import simulate_route_set
    from ..topology.mesh import Mesh2D

    backend = backend_spec(args.backend or config.simulation.backend)
    mesh = Mesh2D(config.mesh_size)
    flow_set = pattern_flow_set(args.workload, mesh, config)
    plan = plan_routes(args.algorithm, mesh, flow_set, config)

    profiler = cProfile.Profile()
    profiler.enable()
    stats = simulate_route_set(mesh, plan.route_set, config.simulation,
                               args.rate,
                               phase_boundaries=plan.phase_boundaries,
                               backend=backend.name)
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).strip_dirs() \
        .sort_stats("cumulative").print_stats(args.top)
    header = (
        f"one point: workload={args.workload} algorithm={args.algorithm} "
        f"rate={args.rate:g} backend={backend.name} profile={args.profile}\n"
        f"throughput {stats.throughput:.3f} packets/cycle, "
        f"average latency {stats.average_latency:.1f} cycles\n"
    )
    return header + stream.getvalue().rstrip()


def _render_cache_stats(cache: ResultCache) -> str:
    """The ``cache stats`` report: tier sizes plus the last-run counters.

    ``entries`` are simulated points; route plans (``plans/`` inside each
    tier) are listed beside them, never counted among them.
    """
    stats = cache.stats()
    lines = [
        f"local   {stats['directory']}: {stats['entries']} entries, "
        f"{stats['bytes']} bytes; {stats['plan_entries']} route plan(s), "
        f"{stats['plan_bytes']} bytes",
    ]
    if "shared_dir" in stats:
        lines.append(
            f"shared  {stats['shared_dir']}: {stats['shared_entries']} "
            f"entries, {stats['shared_bytes']} bytes; "
            f"{stats['shared_plan_entries']} route plan(s), "
            f"{stats['shared_plan_bytes']} bytes"
        )
    last_run = stats.get("last_run")
    if last_run:
        lines.append(
            f"last run: {last_run.get('points_total', 0)} points, "
            f"{last_run.get('cache_hits', 0)} cache hit(s), "
            f"{last_run.get('points_simulated', 0)} simulated, "
            f"{last_run.get('shared_hits', 0)} from the shared tier; "
            f"{last_run.get('plan_hits', 0)} plan(s) cached, "
            f"{last_run.get('plan_misses', 0)} solved"
        )
    else:
        lines.append("last run: no run recorded in this cache directory yet")
    return "\n".join(lines)


def run_cache(args: argparse.Namespace) -> str:
    cache = ResultCache(args.cache_dir or default_cache_dir(),
                        shared_dir=getattr(args, "shared_dir", None))
    if args.action == "clear":
        plans = cache.stats()["plan_entries"]
        removed = cache.clear()
        return (f"removed {removed} cached result(s) and {plans} route "
                f"plan(s) from {cache.directory}")
    if args.action == "stats":
        return _render_cache_stats(cache)
    text = f"{cache.directory}: {len(cache)} cached result(s)"
    if cache.shared_dir is not None:
        text += f" (shared tier: {cache.shared_dir})"
    return text


__all__ = [
    "add_runner_subcommands",
    "describe_plans",
    "run_cache",
    "run_figure",
    "run_profile",
    "run_sweep",
    "run_table",
]
