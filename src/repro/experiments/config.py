"""Experiment configuration shared by the table and figure harnesses.

The defaults reproduce the paper's setup at a scale a pure-Python simulator
can sweep in minutes: the 8x8 mesh and the paper's per-flow demands are kept,
while the simulated cycle counts and the number of sweep points are reduced.
``ExperimentConfig.paper_scale()`` restores the full 20k + 100k cycle
methodology for long-running, full-fidelity reproduction runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from ..exceptions import ExperimentError
from ..simulator.config import SimulationConfig


#: Per-flow demand (MB/s) used for the synthetic benchmarks.  With 25 MB/s
#: per flow the XY-routed transpose MCL is 7 * 25 = 175 MB/s and the
#: bit-complement MCL is 4 * 25 = 100 MB/s, matching Table 6.3.
SYNTHETIC_FLOW_DEMAND = 25.0

#: Accepted experiment scales — the one definition behind ``--profile``, a
#: study's ``profile:`` and :meth:`ExperimentConfig.from_profile`.
PROFILES = ("quick", "default", "paper")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of a reproduction run."""

    #: mesh edge length (the paper uses 8).
    mesh_size: int = 8
    #: per-flow demand of the synthetic patterns (MB/s).
    synthetic_demand: float = SYNTHETIC_FLOW_DEMAND
    #: virtual channels per port for the figure sweeps (the paper uses 2 for
    #: the main comparisons).
    num_vcs: int = 2
    #: offered aggregate injection rates (packets/cycle) for the sweeps.
    offered_rates: Tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0)
    #: simulator run-length parameters.
    simulation: SimulationConfig = field(
        default_factory=lambda: SimulationConfig(
            num_vcs=2, warmup_cycles=500, measurement_cycles=2500
        )
    )
    #: hop slack allowed to BSOR's MILP selector beyond minimal paths.
    hop_slack: int = 2
    #: per-CDG MILP time limit in seconds.
    milp_time_limit: Optional[float] = 30.0
    #: explore the full 12 + 3 CDG set (True) or the 5-column paper set.
    explore_full_cdg_set: bool = False
    #: random seed shared by ROMM / Valiant / ad hoc CDGs / injection.
    seed: int = 0
    #: mapping strategy for application task graphs onto the topology.
    #: ``None`` means the workload's own ``default_mapping`` (``"block"``
    #: for the paper's three applications, their original placement).
    mapping_strategy: Optional[str] = None
    #: worker processes for the experiment runner (1 = serial, the seed
    #: behaviour; 0 = auto via $REPRO_WORKERS or the CPU count).
    workers: int = 1
    #: consult / populate the content-addressed result cache.
    use_cache: bool = False
    #: cache directory (None = $REPRO_CACHE_DIR or ~/.cache/repro-bsor).
    cache_dir: Optional[str] = None
    #: shared second-tier cache directory the local cache reads through to
    #: (None = $REPRO_SHARED_CACHE_DIR or no shared tier).  Not part of any
    #: simulation fingerprint — where results are stored never changes them.
    shared_cache_dir: Optional[str] = None
    #: execution backend for cache-miss points (None = "local"; "queue"
    #: drains through a shared work-queue directory).
    execution: Optional[str] = None
    #: queue directory for the "queue" execution backend
    #: (None = $REPRO_QUEUE_DIR).
    queue_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mesh_size < 2:
            raise ExperimentError(f"mesh size must be >= 2: {self.mesh_size}")
        if self.workers < 0:
            raise ExperimentError(f"workers must be >= 0: {self.workers}")
        if self.synthetic_demand <= 0:
            raise ExperimentError(
                f"synthetic demand must be positive: {self.synthetic_demand}"
            )
        if not self.offered_rates:
            raise ExperimentError("offered_rates must not be empty")
        if any(rate <= 0 for rate in self.offered_rates):
            raise ExperimentError("offered rates must be positive")

    # ------------------------------------------------------------------
    def with_vcs(self, num_vcs: int) -> "ExperimentConfig":
        return replace(
            self, num_vcs=num_vcs, simulation=self.simulation.with_vcs(num_vcs)
        )

    def with_variation(self, fraction: float) -> "ExperimentConfig":
        return replace(self, simulation=self.simulation.with_variation(fraction))

    def with_backend(self, backend: str) -> "ExperimentConfig":
        """A copy running on a different simulator backend.

        Backends are bit-identical, so this changes wall-clock time only —
        results, figures and cache keys are unaffected.
        """
        return replace(self, simulation=self.simulation.with_backend(backend))

    def with_rates(self, rates: Sequence[float]) -> "ExperimentConfig":
        return replace(self, offered_rates=tuple(rates))

    def with_runner(self, workers: Optional[int] = None,
                    use_cache: Optional[bool] = None,
                    cache_dir: Optional[str] = None) -> "ExperimentConfig":
        """A copy with different experiment-runner settings."""
        updates = {}
        if workers is not None:
            updates["workers"] = workers
        if use_cache is not None:
            updates["use_cache"] = use_cache
        if cache_dir is not None:
            updates["cache_dir"] = cache_dir
        return replace(self, **updates)

    @classmethod
    def from_profile(cls, profile: str, **overrides) -> "ExperimentConfig":
        """Build a configuration from a named profile.

        ``quick`` = :meth:`quick`, ``paper`` = :meth:`paper_scale`,
        ``default`` (or ``benchmark``) = :meth:`benchmark_scale`.  The CLI
        and the benchmark harness both resolve their ``--profile`` /
        ``REPRO_BENCH_PROFILE`` inputs here.
        """
        key = profile.lower()
        if key == "quick":
            return cls.quick(**overrides)
        if key == "paper":
            return cls.paper_scale(**overrides)
        if key in ("default", "benchmark"):
            return cls.benchmark_scale(**overrides)
        raise ExperimentError(
            f"unknown profile {profile!r}; known: {', '.join(PROFILES)}"
        )

    @classmethod
    def quick(cls, **overrides) -> "ExperimentConfig":
        """A fast configuration for tests: 4x4 mesh, short simulations."""
        defaults = dict(
            mesh_size=4,
            offered_rates=(0.5, 1.5, 3.0),
            simulation=SimulationConfig.test_scale(num_vcs=2),
            milp_time_limit=10.0,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def paper_scale(cls, **overrides) -> "ExperimentConfig":
        """The paper's full methodology (slow in pure Python)."""
        defaults = dict(
            mesh_size=8,
            offered_rates=(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0),
            simulation=SimulationConfig.paper_scale(num_vcs=2),
            milp_time_limit=300.0,
            explore_full_cdg_set=True,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def benchmark_scale(cls, **overrides) -> "ExperimentConfig":
        """The default for the pytest-benchmark harness: the paper's mesh and
        demands, trimmed cycle counts and sweep points so that every figure
        regenerates in roughly a minute."""
        defaults = dict(
            mesh_size=8,
            offered_rates=(1.0, 2.5, 5.0),
            simulation=SimulationConfig(
                num_vcs=2, warmup_cycles=200, measurement_cycles=1000
            ),
            milp_time_limit=20.0,
        )
        defaults.update(overrides)
        return cls(**defaults)
