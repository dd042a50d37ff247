"""The ``report`` subcommand: result JSON in, one HTML file out.

``python -m repro report results.json`` renders a saved result set (a
``repro run --format json`` study document or a bare row array) into the
self-contained HTML page built by :mod:`repro.report`: latency and
throughput pivots plus the channel-load heatmap of the plans behind the
rows.  The shared ``--profile`` / ``--cache-dir`` / ``--shared-cache-dir``
/ ``--no-cache`` options (given before ``report``) override the embedded
study's execution policy for planning them, as they do for ``run``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .common import config_overrides


def add_report_options(parser: argparse.ArgumentParser) -> None:
    """Add the report option set to the ``report`` subparser."""
    parser.add_argument("results",
                        help="result JSON file (a `repro run --format json` "
                             "document or a JSON array of result rows)")
    parser.add_argument("--output", default=None,
                        help="HTML file to write (default: the input path "
                             "with a .html suffix; '-' for stdout)")
    parser.add_argument("--title", default=None,
                        help="report title (default: derived from the "
                             "input file name)")
    parser.add_argument("--no-heatmap", action="store_true",
                        help="skip the channel-load heatmap")


def run_report_command(args: argparse.Namespace) -> int:
    from ..report import build_report

    document = build_report(args.results, title=args.title,
                            with_heatmap=not args.no_heatmap,
                            **config_overrides(args))
    if args.output == "-":
        sys.stdout.write(document)
        return 0
    output = args.output or os.path.splitext(args.results)[0] + ".html"
    with open(output, "w", encoding="utf-8") as stream:
        stream.write(document)
    print(f"wrote {output}")
    return 0


__all__ = ["add_report_options", "run_report_command"]
