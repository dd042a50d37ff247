"""Shared option plumbing of the unified CLI.

One definition of the worker/profile/backend/cache option set (accepted both
before and after a subcommand), the exit-code policy constants, and the
:class:`UsageError` type mapping bad option *values* to the usage exit code.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..experiments.config import PROFILES
from ..progress import PROGRESS_MODES

#: Exit codes of every CLI path: success / hard failure / usage error.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """A malformed option value (exit code 2, like an argparse error)."""


#: Defaults of the options shared by every subcommand; the options carry
#: ``SUPPRESS`` defaults so they can be accepted both before and after the
#: subcommand without the subparser default clobbering a root-parsed value.
COMMON_DEFAULTS = {
    "workers": 0,
    "profile": "default",
    "backend": None,
    "no_cache": False,
    "cache_dir": None,
    "shared_cache_dir": None,
    "execution": None,
    "queue_dir": None,
    "list_backends": False,
    "progress": None,
}


def common_options() -> argparse.ArgumentParser:
    """The option set shared by every execution subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                        help="worker processes (0 = $REPRO_WORKERS or CPU count)")
    common.add_argument("--profile", choices=PROFILES, default=argparse.SUPPRESS,
                        help="experiment scale (default: default)")
    common.add_argument("--backend", default=argparse.SUPPRESS,
                        help="simulator kernel (fast, reference or batch; "
                             "backends are bit-identical, so this changes "
                             "speed only — batch also vectorizes whole "
                             "sweeps)")
    common.add_argument("--no-cache", action="store_true",
                        default=argparse.SUPPRESS,
                        help="simulate every point even when cached")
    common.add_argument("--cache-dir", default=argparse.SUPPRESS,
                        help="result cache directory (default: $REPRO_CACHE_DIR "
                             "or ~/.cache/repro-bsor)")
    common.add_argument("--shared-cache-dir", default=argparse.SUPPRESS,
                        help="shared second-tier cache directory layered "
                             "behind the local cache (read-through with "
                             "write-back; default: $REPRO_SHARED_CACHE_DIR)")
    common.add_argument("--execution", default=argparse.SUPPRESS,
                        help="execution backend for cache-miss points: local "
                             "(in-process pool, the default) or queue (a "
                             "shared work-queue directory drained by "
                             "`python -m repro worker` processes)")
    common.add_argument("--queue-dir", default=argparse.SUPPRESS,
                        help="work-queue directory for `--execution queue` "
                             "(default: $REPRO_QUEUE_DIR)")
    common.add_argument("--list-backends", action="store_true",
                        default=argparse.SUPPRESS,
                        help="list registered simulator backends and exit")
    common.add_argument("--progress", choices=PROGRESS_MODES,
                        default=argparse.SUPPRESS,
                        help="progress events on stderr: a live tty line, "
                             "machine-readable jsonl, or quiet (default: "
                             "tty when stderr is interactive, else quiet); "
                             "stdout is byte-identical in every mode")
    return common


def apply_common_defaults(args: argparse.Namespace) -> argparse.Namespace:
    """Fill in any common option the parse did not see.

    Also records whether ``--profile`` was given explicitly
    (``args.profile_explicit``) so the study commands can distinguish "use
    the spec file's profile" from "the user asked for this profile".
    """
    args.profile_explicit = hasattr(args, "profile")
    for name, default in COMMON_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    return args


def split_names(text: str) -> list:
    """The non-empty, stripped items of a comma-separated option value."""
    return [item.strip() for item in text.split(",") if item.strip()]


def config_overrides(args: argparse.Namespace) -> dict:
    """The shared options as :func:`repro.study.execute.resolve_config`
    (and :meth:`Study.run`) keyword overrides.

    Only options the user actually set override a study file's own
    execution policy: ``--workers 0`` (the parser default) and an unset
    ``--backend`` pass ``None`` through, and ``--profile`` only overrides
    when it was given explicitly (see :func:`apply_common_defaults`).
    """
    overrides = {
        "workers": args.workers or None,
        "cache": False if args.no_cache else None,
        "cache_dir": args.cache_dir,
        "shared_cache_dir": args.shared_cache_dir,
        "backend": args.backend,
        "execution": args.execution,
        "queue_dir": args.queue_dir,
    }
    if args.profile_explicit:
        overrides["profile"] = args.profile
    return overrides


def experiment_config(args: argparse.Namespace):
    """The ``(ExperimentConfig, ExperimentRunner)`` of a subcommand without
    a study file: the shared options over the default execution policy."""
    from ..study.execute import resolve_config
    from ..study.spec import Study

    return resolve_config(Study(args.command), **config_overrides(args))


def quiet_broken_pipe() -> int:
    """Turn a BrokenPipeError on stdout into a quiet success exit.

    ``python -m repro list routers | head -3`` is a legitimate use: when
    the reader goes away mid-write the command did its job.  Point the
    stdout file descriptor at ``/dev/null`` so the interpreter's exit-time
    flush of the already-broken stream cannot raise a second traceback,
    then report success.  When stdout has no file descriptor (an
    in-process fake during tests) there is nothing to redirect.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        fd = None
    if fd is not None:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        except OSError:
            pass
    return EXIT_OK
