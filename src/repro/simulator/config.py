"""Simulator configuration.

The defaults follow the paper's simulation methodology (Section 6.1):

* wormhole flow control, per-hop latency of one cycle;
* 1, 2, 4 or 8 virtual channels per port, each with a 16-flit buffer;
* the resource-to-switch (injection/ejection) link has four times the
  bandwidth of switch-to-switch links;
* 20,000 warm-up cycles followed by 100,000 measurement cycles.

Because this simulator is pure Python, the default cycle counts are scaled
down by an order of magnitude so test suites and benchmark harnesses finish
in reasonable time; ``SimulationConfig.paper_scale()`` restores the paper's
numbers for full-fidelity runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..exceptions import SimulationError

#: Config fields allowed to differ between the lanes of one batched
#: simulation; every other field shapes the shared pipeline itself and must
#: be uniform.  The runner's batch-group key drops exactly these fields.
LANE_VARIABLE_FIELDS = frozenset(
    {"num_vcs", "seed", "backend", "bandwidth_variation",
     "variation_dwell_cycles"})


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of a simulation run."""

    #: number of virtual channels per physical channel.
    num_vcs: int = 2
    #: flit buffer depth per virtual channel.
    buffer_depth: int = 16
    #: packet length in flits (head + body + tail).
    packet_size_flits: int = 8
    #: warm-up cycles excluded from statistics.
    warmup_cycles: int = 2_000
    #: measurement cycles after warm-up.
    measurement_cycles: int = 10_000
    #: injection/ejection bandwidth in flits per cycle (switch links move 1).
    local_bandwidth: int = 4
    #: capacity of the per-node injection (source-side) buffer in flits.
    injection_buffer_depth: int = 64
    #: seed for the injection processes and arbitration tie-breaks — and,
    #: in an experiment, for the seeded routers (ROMM / Valiant / O1TURN)
    #: and application placement (the one seed a study's ``seed:`` sets).
    seed: int = 0
    #: relative variation of flow rates at run time (0 disables the
    #: Markov-modulated variation model).
    bandwidth_variation: float = 0.0
    #: mean dwell time (cycles) of the Markov-modulated rate states.
    variation_dwell_cycles: int = 200
    #: when True, packets whose injection queue is full are dropped at the
    #: source and counted; when False the source stalls (no loss), which is
    #: the paper's assumption ("there is no packet loss").
    drop_when_source_full: bool = False
    #: simulator kernel executing the run (``repro.simulator.backends``
    #: registry name).  ``None`` leaves the choice to the width rule of
    #: :mod:`repro.simulator.backends`: the runner sends wide batchable
    #: groups of points to ``batch`` and everything else to ``fast``.
    #: Every registered backend is bit-identical, so the choice affects
    #: wall-clock time only — and is deliberately **excluded** from the
    #: result-cache fingerprint.
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_vcs < 1:
            raise SimulationError(
                f"num_vcs must be a positive flit-buffer count, "
                f"got {self.num_vcs}"
            )
        if self.buffer_depth < 1:
            raise SimulationError(
                f"buffer_depth must be a positive number of flits per "
                f"virtual channel, got {self.buffer_depth}"
            )
        if self.packet_size_flits < 1:
            raise SimulationError(
                f"packet_size_flits must be >= 1: {self.packet_size_flits}"
            )
        if self.warmup_cycles < 0:
            raise SimulationError(
                f"warmup_cycles must be >= 0, got {self.warmup_cycles}"
            )
        if self.measurement_cycles <= 0:
            raise SimulationError(
                f"measurement_cycles must be >= 1, got "
                f"{self.measurement_cycles}"
            )
        if self.local_bandwidth < 1:
            raise SimulationError(
                f"local_bandwidth must be a positive flits-per-cycle "
                f"ejection/injection bandwidth, got {self.local_bandwidth}"
            )
        if self.injection_buffer_depth < self.packet_size_flits:
            raise SimulationError(
                f"injection_buffer_depth ({self.injection_buffer_depth} "
                f"flits) cannot hold even one {self.packet_size_flits}-flit "
                f"packet; no packet could ever leave its source"
            )
        if self.variation_dwell_cycles < 1:
            raise SimulationError(
                f"variation_dwell_cycles must be >= 1, got "
                f"{self.variation_dwell_cycles}"
            )
        if not 0.0 <= self.bandwidth_variation <= 1.0:
            raise SimulationError(
                f"bandwidth_variation must be in [0, 1]: {self.bandwidth_variation}"
            )
        if self.backend is not None and (
                not isinstance(self.backend, str) or not self.backend.strip()):
            raise SimulationError(
                f"backend must be a non-empty simulator-backend name "
                f"(see repro.simulator.backends) or None, got "
                f"{self.backend!r}"
            )

    @property
    def total_cycles(self) -> int:
        return self.warmup_cycles + self.measurement_cycles

    def with_vcs(self, num_vcs: int) -> "SimulationConfig":
        """A copy with a different number of virtual channels."""
        return replace(self, num_vcs=num_vcs)

    def with_variation(self, fraction: float) -> "SimulationConfig":
        """A copy with run-time bandwidth variation enabled."""
        return replace(self, bandwidth_variation=fraction)

    def with_backend(self, backend: str) -> "SimulationConfig":
        """A copy running on a different simulator backend.

        The backend does not change results (all registered backends are
        bit-identical) or cache keys — only how fast the points simulate.
        """
        return replace(self, backend=backend)

    def scaled(self, factor: float) -> "SimulationConfig":
        """A copy with warm-up and measurement windows scaled by *factor*."""
        if factor <= 0:
            raise SimulationError(f"scale factor must be positive: {factor}")
        return replace(
            self,
            warmup_cycles=max(int(self.warmup_cycles * factor), 0),
            measurement_cycles=max(int(self.measurement_cycles * factor), 1),
        )

    @classmethod
    def paper_scale(cls, **overrides) -> "SimulationConfig":
        """The paper's full-scale methodology (20k warm-up + 100k measured)."""
        defaults = dict(warmup_cycles=20_000, measurement_cycles=100_000)
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def test_scale(cls, **overrides) -> "SimulationConfig":
        """A small configuration for unit tests (fast, still exercises
        warm-up, wormhole progression and statistics collection)."""
        defaults = dict(warmup_cycles=200, measurement_cycles=1_000,
                        buffer_depth=4, packet_size_flits=4)
        defaults.update(overrides)
        return cls(**defaults)
