"""The ``compare`` subcommand: the routing-comparison engine's CLI face.

An adaptive saturation search over the (topology x pattern x router)
matrix, rendered as markdown or JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from .common import experiment_config, split_names


def add_compare_options(parser: argparse.ArgumentParser) -> None:
    """Add the comparison-specific option set to *parser*.

    The shared worker/profile/backend/cache options are NOT defined here —
    the unified CLI's subparser attaches
    :func:`repro.cli.common.common_options` as a parent, so those options
    keep their SUPPRESS defaults and survive being given before the
    ``compare`` subcommand.
    """
    parser.add_argument("--topology", "--topologies", dest="topologies",
                        default="mesh8x8",
                        help="comma-separated topology specs, e.g. "
                             "mesh8x8,torus4x4,ring16 (default: %(default)s)")
    parser.add_argument("--patterns", default=None,
                        help="comma-separated traffic patterns "
                             "(default: transpose,bit_complement unless "
                             "--workloads is given)")
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        default=None,
                        help="comma-separated application workloads from "
                             "the repro.workloads registry (see "
                             "--list-workloads); adds a workload axis "
                             "alongside --patterns")
    parser.add_argument("--mapping", default=None,
                        choices=("block", "row-major", "spread", "random"),
                        help="task placement strategy for application "
                             "workloads (default: block)")
    parser.add_argument("--routers", default="dor,o1turn,bsor-dijkstra",
                        help="comma-separated registry names "
                             "(default: %(default)s)")
    parser.add_argument("--faults", default=None,
                        help="fault sets to compare, separated by ';' "
                             "(commas join faults within one set), e.g. "
                             "'none;link:0-1;link:0-1,link:5-6' — adds a "
                             "fault axis and a degradation report")
    parser.add_argument("--min-rate", type=float, default=None,
                        help="lowest offered rate / latency reference point")
    parser.add_argument("--max-rate", type=float, default=None,
                        help="highest offered rate to probe")
    parser.add_argument("--resolution", type=float, default=None,
                        help="target width of the saturation bracket")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of markdown")
    parser.add_argument("--output", default=None,
                        help="write the report to a file instead of stdout")
    parser.add_argument("--list-routers", action="store_true",
                        help="list registered routing algorithms and exit")
    parser.add_argument("--list-workloads", action="store_true",
                        help="list registered application workloads and exit")
    parser.add_argument("--list-patterns", action="store_true",
                        help="list accepted traffic patterns and exit")


def run_compare(args: argparse.Namespace) -> int:
    """Execute the comparison described by parsed *args*."""
    from ..compare.matrix import CompareMatrix
    from ..compare.report import render_json, render_markdown
    from ..compare.saturation import SaturationCriteria
    from ..runner.engine import runner_for

    # the pattern axis is the concatenation of --patterns and --workloads;
    # the default synthetic pair applies only when neither axis was given
    patterns = split_names(args.patterns) if args.patterns else []
    patterns += split_names(args.workloads) if args.workloads else []
    if not patterns:
        patterns = ["transpose", "bit_complement"]

    config = experiment_config(args)
    if args.mapping:
        config = dataclasses.replace(config, mapping_strategy=args.mapping)
    started = time.time()
    matrix = CompareMatrix(
        config=config,
        criteria=SaturationCriteria.bounded(args.min_rate, args.max_rate,
                                            args.resolution),
        runner=runner_for(config),
        observer=getattr(args, "progress_observer", None))
    fault_sets = [entry.strip() for entry in args.faults.split(";")
                  if entry.strip()] if args.faults else None
    result = matrix.run(
        split_names(args.topologies), patterns, split_names(args.routers),
        fault_sets=fault_sets,
    )
    output = render_json(result) if args.json else render_markdown(result)
    if args.output:
        with open(args.output, "w") as stream:
            stream.write(output if output.endswith("\n") else output + "\n")
        print(f"wrote {args.output}")
    else:
        print(output)
    elapsed = time.time() - started
    observer = getattr(args, "progress_observer", None)
    if observer is not None:
        observer.close()  # erase a live tty line before the summary
    print(f"[{result.total_invocations()} rate point(s) across "
          f"{len(result.cells)} cell(s); {result.report.describe()}; "
          f"{elapsed:.1f}s]", file=sys.stderr)
    return 0
