"""The ``serve`` / ``worker`` / ``submit`` subcommands: the serving plane.

``serve`` runs the asyncio study-serving front door
(:mod:`repro.serve.service`); ``worker`` drains a shared work-queue
directory (:mod:`repro.runner.worker` — the fleet side of the ``queue``
execution backend); ``submit`` is the stdlib client: post a spec to a
running service, follow it to completion and print the result.

``submit --format json`` prints the service's result document **verbatim**
— the byte-identical ``StudyResult.to_json()`` text ``python -m repro run
--format json`` would print for the same spec — so diffing the two paths
is a one-liner.
"""

from __future__ import annotations

import argparse
import sys

from .common import UsageError


def add_serve_subcommands(commands, common: argparse.ArgumentParser) -> None:
    """Register serve/worker/submit on a subparsers object."""
    serve = commands.add_parser(
        "serve", parents=[common],
        help="serve studies over HTTP (submit, wait, stream, fetch)")
    serve.add_argument("--host", default=None,
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8787)")
    serve.add_argument("--job-workers", type=int, default=2,
                       help="concurrent studies (default: %(default)s)")

    worker = commands.add_parser(
        "worker", parents=[common],
        help="drain a shared work-queue directory (the queue execution "
             "backend's fleet side)")
    worker.add_argument("--max-tasks", type=int, default=None,
                        help="exit after this many tasks (default: no limit)")
    worker.add_argument("--idle-exit", type=float, default=None,
                        help="exit after the queue stays empty this many "
                             "seconds (default: run forever)")
    worker.add_argument("--poll-interval", type=float, default=0.05,
                        help="seconds between idle queue polls "
                             "(default: %(default)s)")

    submit = commands.add_parser(
        "submit",
        help="submit a study spec to a running serve instance and wait")
    submit.add_argument("spec", help="path to the study file, e.g. "
                                     "examples/studies/smoke.yaml")
    submit.add_argument("--url", default="http://127.0.0.1:8787",
                        help="service endpoint (default: %(default)s)")
    submit.add_argument("--format", choices=("markdown", "json", "csv"),
                        default="json",
                        help="output format; json prints the service's "
                             "result document verbatim "
                             "(default: %(default)s)")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="seconds to wait for completion "
                             "(default: %(default)s)")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and return without waiting")


def run_serve_command(args: argparse.Namespace) -> int:
    from ..serve.service import DEFAULT_HOST, DEFAULT_PORT, StudyService

    service = StudyService(
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
        job_workers=args.job_workers,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        shared_cache_dir=args.shared_cache_dir,
        workers=args.workers or None,
        backend=args.backend,
        profile=args.profile if getattr(args, "profile_explicit", False)
        else None,
        execution=args.execution,
        queue_dir=args.queue_dir,
    )

    def announce(port: int) -> None:
        # one parseable line on stdout: smoke scripts and tests read the
        # bound (possibly ephemeral) port from it
        print(f"serving on http://{service.host}:{port}", flush=True)

    try:
        service.run(ready=announce)
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    return 0


def run_worker_command(args: argparse.Namespace) -> int:
    import os

    from ..runner.backends import QUEUE_DIR_ENV
    from ..runner.cache import ResultCache
    from ..runner.worker import run_worker_loop

    queue_dir = args.queue_dir or os.environ.get(QUEUE_DIR_ENV)
    if not queue_dir:
        raise UsageError(
            f"worker: needs a queue directory (--queue-dir or "
            f"${QUEUE_DIR_ENV})"
        )
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir,
                            shared_dir=args.shared_cache_dir)
    completed = run_worker_loop(
        queue_dir, cache=cache,
        max_tasks=args.max_tasks, idle_exit=args.idle_exit,
        poll_interval=args.poll_interval,
        log=lambda line: print(line, file=sys.stderr),
    )
    print(f"completed {completed} task(s)")
    return 0


def run_submit_command(args: argparse.Namespace) -> int:
    import json

    from ..serve.client import ServeClient
    from ..study.execute import StudyResult
    from ..study.resultset import ResultSet
    from ..study.spec import Study

    try:
        spec_text = open(args.spec).read()
    except OSError as error:
        raise UsageError(f"cannot read study file {args.spec}: "
                         f"{error.strerror or error}")
    client = ServeClient(args.url)
    job_id = client.submit(spec_text)
    if args.no_wait:
        print(job_id)
        return 0
    print(f"submitted {job_id} to {args.url}", file=sys.stderr)
    state = client.wait(job_id, timeout=args.timeout)
    text = client.result_text(job_id)
    if args.format == "json":
        # verbatim: the byte-identical document `python -m repro run
        # --format json` prints for the same spec
        print(text)
    else:
        payload = json.loads(text)
        result = StudyResult(
            study=Study.from_dict(payload["study"]),
            results=ResultSet(payload["rows"]),
            report=None,
            config=None,
            profile=payload["study"].get("profile", "default"),
        )
        print(result.to_csv() if args.format == "csv"
              else result.render_markdown())
    counts = state.get("event_counts", {})
    print(f"[job {job_id}: {counts.get('cache_hit', 0)} cached, "
          f"{counts.get('point_finished', 0)} simulated]", file=sys.stderr)
    return 0


__all__ = [
    "add_serve_subcommands",
    "run_serve_command",
    "run_submit_command",
    "run_worker_command",
]
