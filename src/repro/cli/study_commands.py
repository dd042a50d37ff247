"""The ``run`` / ``saturate`` / ``validate`` subcommands of the unified CLI.

``run`` executes a declarative study spec (YAML/JSON) through
:func:`repro.study.run_study`; ``saturate`` is the one-liner that builds a
single-scenario saturation study from options (the focused counterpart of
the full ``compare`` matrix); ``validate`` schema-checks spec files without
running anything (CI validates ``examples/studies/*.yaml`` this way).
"""

from __future__ import annotations

import argparse
import sys
import time

from ..study.spec import Study
from .common import UsageError, config_overrides, split_names


def add_study_subcommands(commands, common: argparse.ArgumentParser) -> None:
    """Register run/saturate/validate on a subparsers object."""
    run = commands.add_parser(
        "run", parents=[common],
        help="execute a declarative study spec (YAML or JSON)")
    run.add_argument("spec", help="path to the study file, e.g. "
                                  "examples/studies/smoke.yaml")
    run.add_argument("--format", choices=("markdown", "json", "csv"),
                     default="markdown",
                     help="output format (default: %(default)s)")
    run.add_argument("--output", default=None,
                     help="write the report to a file instead of stdout")
    run.add_argument("--faults", default=None,
                     help="override every scenario's fault axis: fault sets "
                          "separated by ';' (commas join faults within one "
                          "set), e.g. 'none;link:0-1,link:5-6'")

    saturate = commands.add_parser(
        "saturate", parents=[common],
        help="adaptive saturation search for chosen routers (a one-scenario "
             "saturate study)")
    saturate.add_argument("--topology", "--topologies", dest="topologies",
                          default="mesh8x8",
                          help="comma-separated topology specs "
                               "(default: %(default)s)")
    saturate.add_argument("--patterns", "--pattern", dest="patterns",
                          default="transpose",
                          help="comma-separated patterns or workloads "
                               "(default: %(default)s)")
    saturate.add_argument("--routers", default="dor,o1turn,bsor-dijkstra",
                          help="comma-separated registry names "
                               "(default: %(default)s)")
    saturate.add_argument("--min-rate", type=float, default=None,
                          help="lowest offered rate / latency reference point")
    saturate.add_argument("--max-rate", type=float, default=None,
                          help="highest offered rate to probe")
    saturate.add_argument("--resolution", type=float, default=None,
                          help="target width of the saturation bracket")
    saturate.add_argument("--format", choices=("markdown", "json", "csv"),
                          default="markdown",
                          help="output format (default: %(default)s)")
    saturate.add_argument("--list-routers", action="store_true",
                          help="list registered routing algorithms and exit")
    saturate.add_argument("--list-workloads", action="store_true",
                          help="list registered application workloads and "
                               "exit")

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


def _close_progress(args: argparse.Namespace) -> None:
    """Erase a live tty progress line before the stderr timing summary."""
    observer = getattr(args, "progress_observer", None)
    if observer is not None:
        observer.close()


def run_study_command(args: argparse.Namespace) -> int:
    study = Study.from_file(args.spec)
    if getattr(args, "faults", None):
        import dataclasses

        fault_axis = tuple(entry.strip() for entry in args.faults.split(";")
                           if entry.strip())
        study.scenarios = [dataclasses.replace(scenario, faults=fault_axis)
                           for scenario in study.scenarios]
        study.validate()
    started = time.time()
    result = study.run(**config_overrides(args),
                       observer=getattr(args, "progress_observer", None))
    _emit(_render(result, args.format), args.output)
    elapsed = time.time() - started
    _close_progress(args)
    print(f"[{result.report.describe()}; {elapsed:.1f}s]", file=sys.stderr)
    return 0


def run_saturate_command(args: argparse.Namespace) -> int:
    study = Study(
        "saturate",
        description="Ad hoc saturation study built from CLI options.",
    ).grid(
        topologies=split_names(args.topologies),
        routers=split_names(args.routers),
        patterns=split_names(args.patterns),
    ).saturate(
        min_rate=args.min_rate,
        max_rate=args.max_rate,
        resolution=args.resolution,
    ).with_policy(profile=args.profile)
    started = time.time()
    result = study.run(**config_overrides(args),
                       observer=getattr(args, "progress_observer", None))
    _emit(_render(result, args.format), None)
    elapsed = time.time() - started
    _close_progress(args)
    print(f"[{result.report.describe()}; {elapsed:.1f}s]", file=sys.stderr)
    return 0


def run_validate_command(args: argparse.Namespace) -> int:
    if not args.specs:
        raise UsageError("validate: needs at least one spec file")
    for path in args.specs:
        study = Study.from_file(path)
        print(f"ok: {path} — study {study.name!r}, "
              f"{len(study.scenarios)} scenario(s), "
              f"profile {study.policy.profile!r}")
    return 0
