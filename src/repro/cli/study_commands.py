"""The ``run`` / ``compare`` / ``validate`` subcommands of the unified CLI.

``run`` executes a declarative study spec (YAML/JSON) through
:func:`repro.study.run_study`; ``compare`` (alias ``saturate``) builds a
one-scenario saturation study — the (topology x pattern x router x fault
set) matrix — from options and runs it the same way, so both print the one
:class:`~repro.study.execute.StudyResult`; ``validate`` schema-checks spec
files without running anything (CI validates ``examples/studies/*.yaml``
this way).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from ..study.spec import Study
from ..traffic.mapping import MAPPING_STRATEGIES
from .common import UsageError, config_overrides, split_names


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("markdown", "json", "csv"),
                        default="markdown",
                        help="output format (default: %(default)s)")
    parser.add_argument("--output", default=None,
                        help="write the report to a file instead of stdout")


def add_study_subcommands(commands, common: argparse.ArgumentParser) -> None:
    """Register run/compare/validate on a subparsers object."""
    run = commands.add_parser(
        "run", parents=[common],
        help="execute a declarative study spec (YAML or JSON)")
    run.add_argument("spec", help="path to the study file, e.g. "
                                  "examples/studies/smoke.yaml")
    _add_output_options(run)
    run.add_argument("--faults", default=None,
                     help="override every scenario's fault axis: fault sets "
                          "separated by ';' (commas join faults within one "
                          "set), e.g. 'none;link:0-1,link:5-6'")

    compare = commands.add_parser(
        "compare", aliases=["saturate"], parents=[common],
        help="adaptive saturation search over a (topology x pattern x "
             "router x fault set) matrix (a one-scenario saturate study)")
    compare.add_argument("--topology", "--topologies", dest="topologies",
                         default="mesh8x8",
                         help="comma-separated topology specs, e.g. "
                              "mesh8x8,torus4x4,ring16 (default: %(default)s)")
    compare.add_argument("--patterns", "--pattern", dest="patterns",
                         default=None,
                         help="comma-separated traffic patterns "
                              "(default: transpose,bit_complement unless "
                              "--workloads is given)")
    compare.add_argument("--workload", "--workloads", dest="workloads",
                         default=None,
                         help="comma-separated application workloads from "
                              "the repro.workloads registry (see "
                              "--list-workloads); adds a workload axis "
                              "alongside --patterns")
    compare.add_argument("--mapping", default=None,
                         choices=MAPPING_STRATEGIES,
                         help="task placement strategy for application "
                              "workloads (default: the workload's own)")
    compare.add_argument("--routers", default="dor,o1turn,bsor-dijkstra",
                         help="comma-separated registry names "
                              "(default: %(default)s)")
    compare.add_argument("--faults", default=None,
                         help="fault sets to compare, separated by ';' "
                              "(commas join faults within one set), e.g. "
                              "'none;link:0-1;link:0-1,link:5-6' — adds a "
                              "fault axis and a degradation table")
    compare.add_argument("--min-rate", type=float, default=None,
                         help="lowest offered rate / latency reference point")
    compare.add_argument("--max-rate", type=float, default=None,
                         help="highest offered rate to probe")
    compare.add_argument("--resolution", type=float, default=None,
                         help="target width of the saturation bracket")
    _add_output_options(compare)
    compare.add_argument("--json", dest="format", action="store_const",
                         const="json", help="shorthand for --format json")
    compare.add_argument("--list-routers", action="store_true",
                         help="list registered routing algorithms and exit")
    compare.add_argument("--list-workloads", action="store_true",
                         help="list accepted workloads (registered "
                              "applications, then synthetic patterns) and "
                              "exit")
    compare.add_argument("--list-patterns", action="store_true",
                         help="list accepted traffic patterns and exit")

    validate = commands.add_parser(
        "validate",
        help="schema-check study spec files without running them")
    validate.add_argument("specs", nargs="+",
                          help="study files to validate")


def _render(result, fmt: str) -> str:
    if fmt == "json":
        return result.to_json()
    if fmt == "csv":
        return result.to_csv()
    return result.render_markdown()


def _emit(output: str, target) -> None:
    if target:
        with open(target, "w") as stream:
            stream.write(output if output.endswith("\n") else output + "\n")
        print(f"wrote {target}")
    else:
        print(output)


def _fault_axis(text) -> tuple:
    """The ';'-separated fault sets of a ``--faults`` value."""
    return tuple(entry.strip() for entry in (text or "").split(";")
                 if entry.strip())


def _run_and_report(study: Study, args: argparse.Namespace) -> int:
    """Run *study* under the shared options: the result to stdout (or
    ``--output``), the run bookkeeping to stderr."""
    observer = getattr(args, "progress_observer", None)
    started = time.time()
    result = study.run(**config_overrides(args), observer=observer)
    _emit(_render(result, args.format), args.output)
    elapsed = time.time() - started
    if observer is not None:
        observer.close()  # erase a live tty line before the summary
    print(f"[{result.report.describe()}; {elapsed:.1f}s]", file=sys.stderr)
    return 0


def run_study_command(args: argparse.Namespace) -> int:
    study = Study.from_file(args.spec)
    if args.faults:
        study.scenarios = [
            dataclasses.replace(scenario, faults=_fault_axis(args.faults))
            for scenario in study.scenarios]
        study.validate()
    return _run_and_report(study, args)


def run_compare_command(args: argparse.Namespace) -> int:
    # the pattern axis is the concatenation of --patterns and --workloads;
    # the default synthetic pair applies only when neither axis was given
    patterns = split_names(args.patterns or "") + \
        split_names(args.workloads or "")
    study = Study(
        args.command,
        description="Ad hoc saturation study built from CLI options.",
    ).grid(
        topologies=split_names(args.topologies),
        routers=split_names(args.routers),
        patterns=patterns or ["transpose", "bit_complement"],
        faults=_fault_axis(args.faults),
        mapping=args.mapping,
    ).saturate(
        min_rate=args.min_rate,
        max_rate=args.max_rate,
        resolution=args.resolution,
    ).with_policy(profile=args.profile)
    return _run_and_report(study, args)


def run_validate_command(args: argparse.Namespace) -> int:
    if not args.specs:
        raise UsageError("validate: needs at least one spec file")
    for path in args.specs:
        study = Study.from_file(path)
        print(f"ok: {path} — study {study.name!r}, "
              f"{len(study.scenarios)} scenario(s), "
              f"profile {study.policy.profile!r}")
    return 0
