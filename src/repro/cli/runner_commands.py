"""The figure / table / sweep / cache / profile subcommands.

Each command builds an :class:`~repro.experiments.config.ExperimentConfig`
from the shared option set and drives the parallel
:class:`~repro.runner.engine.ExperimentRunner`.
"""

from __future__ import annotations

import argparse
import dataclasses

from ..experiments.workloads import extended_workload_names
from ..runner.cache import ResultCache, default_cache_dir
from ..runner.engine import ExperimentRunner
from .common import UsageError, common_options


def add_runner_subcommands(commands, common: argparse.ArgumentParser) -> None:
    """Register figure/table/sweep/cache/profile on a subparsers object."""
    figure = commands.add_parser("figure", help="regenerate one figure",
                                 parents=[common])
    figure.add_argument("number", nargs="?", default=None,
                        help="figure number, e.g. 6-1 or 6.7")
    figure.add_argument("--workload", default="transpose",
                        help="workload for figures 6-7..6-10: one of "
                             f"{', '.join(extended_workload_names())} "
                             "(default: %(default)s)")
    figure.add_argument("--list-workloads", action="store_true",
                        help="list accepted workloads and exit")

    table = commands.add_parser("table", help="regenerate one MCL table",
                                parents=[common])
    table.add_argument("number", nargs="?", default=None,
                       choices=("6-1", "6-2", "6-3"))

    sweep = commands.add_parser("sweep", help="sweep chosen algorithms",
                                parents=[common])
    sweep.add_argument("--workload", default="transpose",
                       help="one of "
                            f"{', '.join(extended_workload_names())} "
                            "(default: %(default)s)")
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
                      help="one of "
                           f"{', '.join(extended_workload_names())} "
                           "(default: %(default)s)")
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


def experiment_config(args: argparse.Namespace):
    """The :class:`ExperimentConfig` the shared options describe."""
    from ..experiments import ExperimentConfig

    config = dataclasses.replace(
        ExperimentConfig.from_profile(args.profile),
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        shared_cache_dir=getattr(args, "shared_cache_dir", None),
        execution=getattr(args, "execution", None),
        queue_dir=getattr(args, "queue_dir", None),
    )
    if args.backend:
        # resolve eagerly so a typo fails with the registry's did-you-mean
        # error even when every sweep point would be a warm-cache hit
        from ..simulator.backends import backend_spec

        config = config.with_backend(backend_spec(args.backend).name)
    return config


def run_figure(args: argparse.Namespace, runner: ExperimentRunner) -> str:
    from ..experiments import (
        figure_by_number,
        figure_variation_sweep,
        figure_vc_sweep,
    )
    from ..experiments.figures import normalize_figure_key
    from ..traffic import PAPER_VARIATION_LEVELS

    key = normalize_figure_key(args.number)
    if key == "6-7":
        result = figure_vc_sweep(args.workload, experiment_config(args),
                                 runner=runner)
        return result.render()
    # Figures 6-8 / 6-9 / 6-10 are the paper's variation levels, in order.
    variation = {f"6-{8 + index}": level
                 for index, level in enumerate(PAPER_VARIATION_LEVELS)}.get(key)
    if variation is not None:
        figure = figure_variation_sweep(args.workload, variation,
                                        experiment_config(args), runner=runner)
        return figure.render()
    figure = figure_by_number(key, experiment_config(args), runner=runner)
    return figure.render()


def run_table(args: argparse.Namespace, runner: ExperimentRunner) -> str:
    from ..experiments import table_6_1, table_6_2, table_6_3

    harness = {"6-1": table_6_1, "6-2": table_6_2, "6-3": table_6_3}[args.number]
    return harness(experiment_config(args), runner=runner).render_against_paper()


def run_sweep(args: argparse.Namespace, runner: ExperimentRunner) -> str:
    from typing import Sequence

    from ..experiments import build_mesh, workload_flow_set
    from ..experiments.report import render_pivot
    from ..planning import router_for
    from ..study.resultset import ResultSet

    config = experiment_config(args)
    mesh = build_mesh(config)
    flow_set = workload_flow_set(args.workload, mesh, config)
    wanted = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    # Resolve through the routing registry: canonical slugs ("bsor-dijkstra"),
    # aliases ("xy") and display names ("BSOR-Dijkstra") all work, and an
    # unknown name fails with the full list of registered algorithms.
    algorithms = [router_for(name, config, mesh) for name in wanted]
    rates: "Sequence[float]" = config.offered_rates
    if args.rates:
        try:
            rates = [float(rate) for rate in args.rates.split(",")]
        except ValueError:
            raise UsageError(
                f"--rates must be comma-separated numbers, got {args.rates!r}"
            )
    results = runner.compare_algorithms(
        algorithms, mesh, flow_set, config.simulation, rates,
        workload=args.workload,
    )
    rows = []
    for name, result in results.items():
        for index, rate in enumerate(rates):
            rows.append({
                "workload": args.workload,
                "algorithm": name,
                "offered_rate": rate,
                "throughput": result.curve.throughputs[index],
                "average_latency": result.curve.latencies[index],
            })
    result_set = ResultSet(rows)
    return "\n\n".join([
        render_pivot(result_set, "offered_rate", "algorithm", "throughput",
                     x_label="offered rate",
                     title=f"{args.workload} - throughput (packets/cycle)"),
        render_pivot(result_set, "offered_rate", "algorithm",
                     "average_latency",
                     x_label="offered rate",
                     title=f"{args.workload} - average latency (cycles)"),
    ])


def run_profile(args: argparse.Namespace) -> str:
    """cProfile one uncached simulation point; returns the top-N table."""
    import cProfile
    import io
    import pstats

    from ..experiments import build_mesh, workload_flow_set
    from ..planning import plan_routes
    from ..simulator.backends import backend_spec
    from ..simulator.simulation import simulate_route_set

    config = experiment_config(args)
    backend = backend_spec(args.backend or config.simulation.backend)
    mesh = build_mesh(config)
    flow_set = workload_flow_set(args.workload, mesh, config)
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
    """The ``cache stats`` report: tier sizes plus the last-run counters."""
    stats = cache.stats()
    lines = [
        f"local   {stats['directory']}: {stats['entries']} entries, "
        f"{stats['bytes']} bytes",
    ]
    if "shared_dir" in stats:
        lines.append(
            f"shared  {stats['shared_dir']}: {stats['shared_entries']} "
            f"entries, {stats['shared_bytes']} bytes"
        )
    last_run = stats.get("last_run")
    if last_run:
        lines.append(
            f"last run: {last_run.get('points_total', 0)} points, "
            f"{last_run.get('cache_hits', 0)} cache hit(s), "
            f"{last_run.get('points_simulated', 0)} simulated, "
            f"{last_run.get('shared_hits', 0)} from the shared tier"
        )
    else:
        lines.append("last run: no run recorded in this cache directory yet")
    return "\n".join(lines)


def run_cache(args: argparse.Namespace) -> str:
    cache = ResultCache(args.cache_dir or default_cache_dir(),
                        shared_dir=getattr(args, "shared_dir", None))
    if args.action == "clear":
        removed = cache.clear()
        return f"removed {removed} cached result(s) from {cache.directory}"
    if args.action == "stats":
        return _render_cache_stats(cache)
    text = f"{cache.directory}: {len(cache)} cached result(s)"
    if cache.shared_dir is not None:
        text += f" (shared tier: {cache.shared_dir})"
    return text


__all__ = [
    "add_runner_subcommands",
    "common_options",
    "experiment_config",
    "run_cache",
    "run_figure",
    "run_profile",
    "run_sweep",
    "run_table",
]
