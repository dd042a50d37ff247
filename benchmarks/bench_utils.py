"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
resulting rows/series so they can be compared with the published numbers
(``pytest benchmarks/ --benchmark-only -s`` shows the tables inline, and
every run writes them under ``benchmarks/results/`` — see "One result path"
in docs/architecture.md).

The benchmark scale is selected with the ``REPRO_BENCH_PROFILE`` environment
variable:

* ``quick``   -- 4x4 mesh, very short simulations (seconds per benchmark);
* ``default`` -- the paper's 8x8 mesh and demands with trimmed cycle counts
  (the default; roughly a minute per figure benchmark);
* ``paper``   -- the paper's full 20k + 100k cycle methodology (hours; only
  for full-fidelity reproduction runs).

Sweeps go through the parallel experiment runner: ``REPRO_WORKERS`` selects
the worker-process count (default 4) and the content-addressed result cache
is on by default, so a re-run of an unchanged benchmark replays every sweep
point from disk without invoking the simulator.  ``REPRO_BENCH_CACHE=0``
forces fresh simulation; ``REPRO_CACHE_DIR`` relocates the store.
"""

from __future__ import annotations

import os
from typing import Dict

from repro.experiments import ExperimentConfig
from repro.planning import parse_topology, pattern_flow_set
from repro.runner import ExperimentRunner

#: Worker processes used by the benchmark harness when $REPRO_WORKERS is
#: not set (the acceptance target is a >= 2x figure-sweep speedup at 4).
DEFAULT_BENCH_WORKERS = 4


def bench_workers() -> int:
    """Worker count for the benchmark harness ($REPRO_WORKERS or 4).

    Delegates the environment parsing to the runner's own
    :func:`repro.runner.resolve_workers` so the variable means the same
    thing here and on the CLI; only the unset-variable default differs
    (4 here, CPU count there).
    """
    from repro.runner import resolve_workers

    if os.environ.get("REPRO_WORKERS"):
        return resolve_workers(None)
    return DEFAULT_BENCH_WORKERS


def bench_cache_enabled() -> bool:
    """Result caching on unless REPRO_BENCH_CACHE is 0/false/off."""
    return os.environ.get("REPRO_BENCH_CACHE", "1").lower() not in (
        "0", "false", "off", "no",
    )


def bench_backend():
    """Simulator backend override from $REPRO_BENCH_BACKEND (None = default).

    Backends are bit-identical, so switching changes benchmark wall-clock
    time only; cached sweep points stay valid either way.
    """
    return os.environ.get("REPRO_BENCH_BACKEND") or None


def bench_config() -> ExperimentConfig:
    """The experiment configuration selected by REPRO_BENCH_PROFILE, on the
    simulator backend chosen by ``REPRO_BENCH_BACKEND``."""
    profile = os.environ.get("REPRO_BENCH_PROFILE", "default")
    config = ExperimentConfig.from_profile(profile)
    backend = bench_backend()
    if backend:
        config = config.with_backend(backend)
    return config


def bench_runner() -> ExperimentRunner:
    """The benchmark harness's experiment runner: :func:`bench_workers`
    processes and the result cache unless ``REPRO_BENCH_CACHE`` is off."""
    return ExperimentRunner(workers=bench_workers(),
                            cache=bench_cache_enabled())


def bench_workload(workload: str, config: ExperimentConfig):
    """``(mesh, flow set)`` of *workload* on the profile's mesh, built the
    way every study builds them (``parse_topology`` / ``pattern_flow_set``).
    """
    mesh = parse_topology(f"mesh{config.mesh_size}x{config.mesh_size}")
    return mesh, pattern_flow_set(workload, mesh, config)


def improvement_summary(values: Dict[str, float], subject: str,
                        higher_is_better: bool = True) -> str:
    """One-line summary: how the subject compares to the best of the rest."""
    if subject not in values:
        return f"{subject}: no data"
    others = {name: value for name, value in values.items() if name != subject}
    if not others:
        return f"{subject}: {values[subject]:.3f} (no baselines)"
    subject_value = values[subject]
    if higher_is_better:
        best_other = max(others.values())
        gain = (subject_value - best_other) / best_other if best_other else 0.0
        direction = "higher" if gain >= 0 else "lower"
    else:
        best_other = min(others.values())
        gain = (best_other - subject_value) / best_other if best_other else 0.0
        direction = "lower" if gain >= 0 else "higher"
    return (
        f"{subject} = {subject_value:.3f}, best baseline = {best_other:.3f} "
        f"({abs(gain) * 100:.0f}% {direction})"
    )


def emit(title: str, text: str) -> None:
    """Print a benchmark's result block and persist it under results/."""
    separator = "=" * max(len(title), 20)
    print(f"\n{separator}\n{title}\n{separator}\n{text}\n")
    emit_to_file(title, text)


def is_full_scale(config: ExperimentConfig) -> bool:
    """True when the configuration is at the paper's 8x8 scale.

    The quantitative claims of the figures (e.g. the ~70% transpose gain)
    are only asserted at full scale; the ``quick`` profile still exercises
    every code path but only checks weak sanity properties, because a 4x4
    mesh with three offered-rate points does not saturate the baselines.
    """
    return config.mesh_size >= 8


def _results_dir() -> "os.PathLike[str]":
    import pathlib

    directory = pathlib.Path(__file__).parent / "results"
    directory.mkdir(exist_ok=True)
    return directory


def _slugify(title: str) -> str:
    keep = [ch.lower() if ch.isalnum() else "-" for ch in title]
    slug = "".join(keep)
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug.strip("-")


def emit_to_file(title: str, text: str) -> None:
    """Persist a benchmark's rendered table/figure under benchmarks/results/.

    pytest captures stdout of passing tests, so the printed tables are not
    visible in a plain ``pytest benchmarks/ --benchmark-only`` log; the
    results directory keeps a durable copy of every regenerated table and
    figure for diffing across runs.
    """
    path = _results_dir() / f"{_slugify(title)}.txt"
    path.write_text(f"{title}\n{'=' * len(title)}\n{text}\n")
