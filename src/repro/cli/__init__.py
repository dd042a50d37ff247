"""``python -m repro`` — the one front door to the whole evaluation plane.

Every way of running the reproduction goes through this CLI::

    python -m repro run examples/studies/figure_6_7.yaml
    python -m repro compare --topology mesh8x8 --routers dor,bsor-dijkstra
    python -m repro figure 6.7 --workers 4
    python -m repro table 6-1
    python -m repro sweep --workload transpose --algorithms XY,BSOR-Dijkstra
    python -m repro saturate --topology mesh8x8 --patterns transpose
    python -m repro cache stats
    python -m repro profile --workload transpose --rate 2.5
    python -m repro report results.json --output report.html
    python -m repro serve --port 8787
    python -m repro submit examples/studies/smoke.yaml --url http://host:8787
    python -m repro worker --queue-dir /shared/queue
    python -m repro list routers
    python -m repro validate examples/studies/*.yaml

``run`` executes a declarative :class:`~repro.study.spec.Study` file and
``compare`` (alias ``saturate``) the one-scenario saturation study its
options describe (the matrix engine, :mod:`repro.compare`); ``figure`` /
``table`` / ``sweep`` / ``cache`` / ``profile`` are the paper-reproduction
commands.  ``serve`` / ``submit`` / ``worker`` are the
serving plane (:mod:`repro.serve`): a study-serving HTTP front door, its
client, and the work-queue drainer behind ``--execution queue``.  ``list``
enumerates every registered vocabulary (routers, workloads, backends,
patterns, executions) from the shared :mod:`repro.registry` machinery.

Exit codes are uniform across every subcommand: ``0`` on success, ``2`` for
usage errors (unknown options, malformed values), ``1`` for execution
failures (unknown names, unroutable flows, simulator faults) — failures
print ``error: ...`` with a did-you-mean hint to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..exceptions import ReproError
from ..progress import make_observer
from .common import (
    COMMON_DEFAULTS,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    PROFILES,
    UsageError,
    apply_common_defaults,
    common_options,
    experiment_config,
    quiet_broken_pipe,
)
from .listing import LIST_KINDS, render_listing
from .report_command import add_report_options, run_report_command
from .runner_commands import (
    add_runner_subcommands,
    describe_plans,
    run_cache,
    run_figure,
    run_profile,
    run_sweep,
    run_table,
)
from .serve_commands import (
    add_serve_subcommands,
    run_serve_command,
    run_submit_command,
    run_worker_command,
)
from .study_commands import (
    add_study_subcommands,
    run_compare_command,
    run_study_command,
    run_validate_command,
)


def build_parser() -> argparse.ArgumentParser:
    common = common_options()
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of the BSOR evaluation: declarative "
                    "studies, figure/table regeneration and routing "
                    "comparisons through one parallel, cached engine.",
        parents=[common],
    )
    commands = parser.add_subparsers(dest="command", required=True)

    add_study_subcommands(commands, common)
    add_runner_subcommands(commands, common)
    add_serve_subcommands(commands, common)

    report = commands.add_parser(
        "report",
        help="render a result-set JSON file as a single-file HTML report")
    add_report_options(report)

    listing = commands.add_parser(
        "list", help="list a registered vocabulary")
    listing.add_argument("kind", choices=LIST_KINDS,
                         help="which vocabulary to list")

    return parser


def _maybe_list(args: argparse.Namespace) -> Optional[str]:
    """The listing a ``--list-*`` flag asks for, if any."""
    # --list-workloads lists what --workload accepts: both vocabularies
    for flag, kinds in (("list_routers", ("routers",)),
                        ("list_workloads", ("workloads", "patterns")),
                        ("list_backends", ("backends",)),
                        ("list_patterns", ("patterns",))):
        if getattr(args, flag, False):
            return "\n".join(render_listing(kind) for kind in kinds)
    return None


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        print(render_listing(args.kind))
        return EXIT_OK
    if args.command == "validate":
        return run_validate_command(args)
    if args.command == "report":
        return run_report_command(args)

    apply_common_defaults(args)
    # one observer per invocation: progress events go to stderr (a live
    # tty line, jsonl, or nothing) and are closed before returning so a
    # TtyObserver's in-place line never lingers under later output
    observer = make_observer(args.progress)
    args.progress_observer = observer
    try:
        return _dispatch_execution(args, observer)
    finally:
        observer.close()


def _dispatch_execution(args: argparse.Namespace, observer) -> int:
    listing = _maybe_list(args)
    if listing is not None:
        print(listing)
        return EXIT_OK
    if args.command == "run":
        return run_study_command(args)
    if args.command in ("compare", "saturate"):
        return run_compare_command(args)
    if args.command == "serve":
        return run_serve_command(args)
    if args.command == "worker":
        return run_worker_command(args)
    if args.command == "submit":
        return run_submit_command(args)

    # the figure/table/cache positionals are optional so that a bare
    # `figure --list-workloads` works; without a list flag they are needed
    if args.command in ("figure", "table") and args.number is None:
        raise UsageError(f"{args.command}: missing the number argument "
                         f"(e.g. `python -m repro {args.command} 6-1`)")
    if args.command == "cache":
        if args.action is None:
            raise UsageError("cache: missing the action argument "
                             "(info, stats or clear)")
        print(run_cache(args))
        return EXIT_OK
    config = experiment_config(args)
    if args.command == "profile":
        print(run_profile(args, config))
        return EXIT_OK

    from ..runner.engine import runner_for

    started = time.time()
    runner = runner_for(config, observer=observer)
    if args.command == "figure":
        output = run_figure(args, config, runner)
    elif args.command == "table":
        output = run_table(args, config, runner)
    else:
        output = run_sweep(args, config, runner)
    elapsed = time.time() - started
    print(output)
    observer.close()
    # a table is route plans only: it simulates no point
    summary = describe_plans(runner.cache) if args.command == "table" \
        else runner.total_report.describe()
    print(f"[{summary}; {elapsed:.1f}s]", file=sys.stderr)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_code:
        # argparse exits 0 for --help and 2 for usage errors; surface the
        # code instead of letting SystemExit escape so embedding callers
        # (tests) get a plain return value
        code = exit_code.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        code = _dispatch(args)
        # flush inside the handler's reach: with a short output the broken
        # pipe only surfaces at flush time, which must map to a quiet exit
        # (not an exit-time traceback)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return quiet_broken_pipe()
    except UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_FAILURE


__all__ = [
    "COMMON_DEFAULTS",
    "EXIT_FAILURE",
    "EXIT_OK",
    "EXIT_USAGE",
    "PROFILES",
    "UsageError",
    "build_parser",
    "main",
]
