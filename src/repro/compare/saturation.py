"""Adaptive saturation-throughput search: coarse bracket + bisection.

Finding the saturation point of one (router, traffic pattern) cell used to
mean simulating a dense grid of offered injection rates and eyeballing where
the latency curve blows up.  This module replaces the grid with an adaptive
two-stage search over the same saturation predicate:

1. **bracketing** — starting from ``min_rate`` (which also provides the
   zero-load latency reference), the offered rate is multiplied by
   ``bracket_factor`` until a saturated point is seen (or ``max_rate`` is
   reached unsaturated);
2. **bisection** — the bracket ``[last unsaturated, first saturated]`` is
   halved until it is no wider than ``resolution``.

A point is *saturated* when its delivery ratio drops below
``delivery_floor`` (the network stops absorbing the offered load) or its
mean latency exceeds ``latency_blowup`` times the latency of the reference
point — the classic mean-latency blow-up criterion.

The search needs ``O(log(max_rate / min_rate) + log(range / resolution))``
simulator invocations instead of ``O(range / resolution)`` for the dense
grid — a 3-5x reduction at typical settings, asserted by
``benchmarks/bench_compare_saturation.py``.

:class:`SaturationSearch` is a *state machine* (``next_rate()`` /
``observe()``), not a driver: the :class:`~repro.compare.matrix.CompareMatrix`
advances many searches in lock step so that every round of one-point-per-cell
batches fills the :class:`~repro.runner.engine.ExperimentRunner` worker pool.
For a single cell (and for tests) the :func:`find_saturation` /
:func:`dense_saturation` drivers run one search to completion against any
``rate -> (throughput, latency, delivery ratio)`` callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..exceptions import ExperimentError

#: Tolerance for floating-point rate comparisons.
_EPSILON = 1e-9


@dataclass(frozen=True)
class SaturationCriteria:
    """Parameters of the saturation predicate and the search range.

    Attributes
    ----------
    min_rate / max_rate:
        Offered-rate search range (packets/cycle).  ``min_rate`` doubles as
        the zero-load reference point and must be comfortably below any
        plausible saturation point.
    resolution:
        Target width of the final bracket; the adaptive search and a dense
        grid with this step agree on the saturation rate to within one step.
    bracket_factor:
        Geometric growth factor of the bracketing stage.
    latency_blowup:
        A point is saturated when its mean latency exceeds this multiple of
        the reference (``min_rate``) latency.
    delivery_floor:
        ... or when its delivery ratio falls below this floor.
    """

    min_rate: float = 0.25
    max_rate: float = 16.0
    resolution: float = 0.25
    bracket_factor: float = 2.0
    latency_blowup: float = 4.0
    delivery_floor: float = 0.90

    def __post_init__(self) -> None:
        if self.min_rate <= 0:
            raise ExperimentError(f"min_rate must be positive: {self.min_rate}")
        if self.max_rate <= self.min_rate:
            raise ExperimentError(
                f"max_rate ({self.max_rate}) must exceed min_rate "
                f"({self.min_rate})"
            )
        if self.resolution <= 0:
            raise ExperimentError(
                f"resolution must be positive: {self.resolution}"
            )
        if self.bracket_factor <= 1.0:
            raise ExperimentError(
                f"bracket_factor must exceed 1: {self.bracket_factor}"
            )
        if self.latency_blowup <= 1.0:
            raise ExperimentError(
                f"latency_blowup must exceed 1: {self.latency_blowup}"
            )
        if not 0.0 < self.delivery_floor <= 1.0:
            raise ExperimentError(
                f"delivery_floor must be in (0, 1]: {self.delivery_floor}"
            )

    @classmethod
    def bounded(cls, min_rate: Optional[float] = None,
                max_rate: Optional[float] = None,
                resolution: Optional[float] = None) -> "SaturationCriteria":
        """The default criteria with the given search range; ``None`` keeps
        a default (how ``--min-rate`` / ``--max-rate`` / ``--resolution``
        and a saturate scenario's fields of the same names apply)."""
        given = {"min_rate": min_rate, "max_rate": max_rate,
                 "resolution": resolution}
        return cls(**{name: value for name, value in given.items()
                      if value is not None})

    def dense_rates(self) -> List[float]:
        """The dense grid the adaptive search replaces.

        ``min_rate, min_rate + resolution, ..., max_rate`` — the serial
        sweep an exhaustive search would simulate point by point.
        """
        rates: List[float] = []
        steps = int(round((self.max_rate - self.min_rate) / self.resolution))
        for index in range(steps + 1):
            rates.append(min(self.min_rate + index * self.resolution,
                             self.max_rate))
        if rates[-1] < self.max_rate - _EPSILON:
            rates.append(self.max_rate)
        return rates


@dataclass
class SaturationObservation:
    """One evaluated rate point and its verdict under the predicate."""

    offered_rate: float
    throughput: float
    average_latency: float
    delivery_ratio: float
    saturated: bool = False


@dataclass
class SaturationResult:
    """Outcome of one saturation search.

    ``saturation_rate`` is the lowest offered rate observed saturated (the
    upper end of the final bracket) — comparable, to within one
    ``resolution`` step, with the first saturated point of a dense sweep.
    When the network never saturates within the range, ``saturation_rate``
    equals ``max_rate`` and ``saturated_within_range`` is False.
    """

    saturation_rate: float
    last_stable_rate: float
    saturated_within_range: bool
    throughput: float
    max_throughput: float
    invocations: int
    observations: List[SaturationObservation] = field(default_factory=list)

    def describe(self) -> str:
        bound = "" if self.saturated_within_range else ">= "
        return (f"saturation {bound}{self.saturation_rate:g} pkt/cycle "
                f"(throughput {self.throughput:.3f}, "
                f"{self.invocations} point(s) evaluated)")


class SaturationSearch:
    """Bracket-and-bisect saturation search, advanced one observation at a time.

    Protocol::

        search = SaturationSearch(criteria)
        while (rate := search.next_rate()) is not None:
            stats = simulate(rate)
            search.observe(rate, stats.throughput, stats.average_latency,
                           stats.delivery_ratio)
        result = search.result()

    ``next_rate()`` returns ``None`` exactly when the search is finished.
    The search is deterministic: the sequence of proposed rates depends only
    on the criteria and the observed verdicts, which is what lets repeated
    runs hit the result cache point for point.
    """

    def __init__(self, criteria: Optional[SaturationCriteria] = None) -> None:
        self.criteria = criteria or SaturationCriteria()
        self.observations: List[SaturationObservation] = []
        #: highest rate observed unsaturated (None until one is seen).
        self._stable: Optional[float] = None
        #: lowest rate observed saturated (None until one is seen).
        self._saturated: Optional[float] = None
        #: latency of the reference (first unsaturated) point.
        self._reference_latency: Optional[float] = None
        self._pending: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        criteria = self.criteria
        if self._saturated is not None and self._stable is None:
            return True  # saturated at the very first point
        if self._saturated is None:
            # still bracketing; finished only when max_rate held stable
            return (self._stable is not None and
                    self._stable >= criteria.max_rate - _EPSILON)
        return self._saturated - self._stable <= criteria.resolution + _EPSILON

    def next_rate(self) -> Optional[float]:
        """The next offered rate to simulate, or ``None`` when done."""
        if self.done:
            return None
        if self._pending is not None:
            return self._pending
        criteria = self.criteria
        if self._stable is None and self._saturated is None:
            rate = criteria.min_rate
        elif self._saturated is None:
            rate = min(self._stable * criteria.bracket_factor,
                       criteria.max_rate)
        else:
            rate = 0.5 * (self._stable + self._saturated)
        self._pending = rate
        return rate

    def observe(self, offered_rate: float, throughput: float,
                average_latency: float, delivery_ratio: float) -> None:
        """Record the simulated outcome of one proposed rate."""
        saturated = self._is_saturated(average_latency, delivery_ratio)
        if not saturated and self._reference_latency is None:
            self._reference_latency = average_latency
        self.observations.append(SaturationObservation(
            offered_rate=offered_rate,
            throughput=throughput,
            average_latency=average_latency,
            delivery_ratio=delivery_ratio,
            saturated=saturated,
        ))
        if saturated:
            if self._saturated is None or offered_rate < self._saturated:
                self._saturated = offered_rate
        else:
            if self._stable is None or offered_rate > self._stable:
                self._stable = offered_rate
        self._pending = None

    def _is_saturated(self, average_latency: float,
                      delivery_ratio: float) -> bool:
        if delivery_ratio < self.criteria.delivery_floor:
            return True
        if self._reference_latency is not None and self._reference_latency > 0:
            return average_latency > \
                self.criteria.latency_blowup * self._reference_latency
        return False

    # ------------------------------------------------------------------
    def result(self) -> SaturationResult:
        """The search outcome; only meaningful once :attr:`done` is True."""
        if not self.done:
            raise ExperimentError(
                "saturation search is not finished; keep feeding "
                "next_rate()/observe() until next_rate() returns None"
            )
        criteria = self.criteria
        if self._saturated is None:
            saturation_rate = criteria.max_rate
            within = False
        else:
            saturation_rate = self._saturated
            within = True
        last_stable = self._stable if self._stable is not None else 0.0
        stable_throughput = 0.0
        for observation in self.observations:
            if not observation.saturated and \
                    abs(observation.offered_rate - last_stable) <= _EPSILON:
                stable_throughput = observation.throughput
        max_throughput = max(
            (observation.throughput for observation in self.observations),
            default=0.0,
        )
        return SaturationResult(
            saturation_rate=saturation_rate,
            last_stable_rate=last_stable,
            saturated_within_range=within,
            throughput=stable_throughput or max_throughput,
            max_throughput=max_throughput,
            invocations=len(self.observations),
            observations=list(self.observations),
        )


# ----------------------------------------------------------------------
# single-cell drivers (tests, benchmarks, library users)
# ----------------------------------------------------------------------
Evaluation = Tuple[float, float, float]  # throughput, latency, delivery ratio
Evaluator = Callable[[float], Evaluation]


def find_saturation(evaluate: Evaluator,
                    criteria: Optional[SaturationCriteria] = None,
                    observer=None) -> SaturationResult:
    """Run one adaptive search to completion against an evaluator callable.

    An *observer* (:class:`~repro.progress.ProgressObserver`) receives a
    ``point_started`` / ``point_finished`` pair per evaluated rate and one
    ``sweep_finished`` when the search converges — the same typed stream
    the runner emits, so a stand-alone search is observable too.
    """
    from ..progress import emitter_for

    emitter = emitter_for(observer)
    if emitter is not None:
        emitter.started_at = emitter.clock()
    search = SaturationSearch(criteria)
    while True:
        rate = search.next_rate()
        if rate is None:
            break
        if emitter is not None:
            emitter.total += 1
            emitter.point_started("saturation", rate)
        throughput, latency, delivery = evaluate(rate)
        search.observe(rate, throughput, latency, delivery)
        if emitter is not None:
            emitter.point_finished("saturation", rate)
    if emitter is not None:
        emitter.sweep_finished(len(search.observations),
                               len(search.observations), 0,
                               label="saturation")
    return search.result()


def dense_saturation(evaluate: Evaluator,
                     criteria: Optional[SaturationCriteria] = None,
                     ) -> SaturationResult:
    """The dense-grid sweep the adaptive search replaces.

    Evaluates *every* rate of :meth:`SaturationCriteria.dense_rates` in
    order (the behaviour of the serial sweeps the figure harness used to
    run) and applies the same saturation predicate, so adaptive and dense
    results are directly comparable — in accuracy and in invocation count.
    """
    criteria = criteria or SaturationCriteria()
    observations: List[SaturationObservation] = []
    reference: Optional[float] = None
    stable: Optional[float] = None
    saturated_at: Optional[float] = None
    for rate in criteria.dense_rates():
        throughput, latency, delivery = evaluate(rate)
        saturated = delivery < criteria.delivery_floor or (
            reference is not None and reference > 0 and
            latency > criteria.latency_blowup * reference
        )
        if not saturated and reference is None:
            reference = latency
        observations.append(SaturationObservation(
            offered_rate=rate, throughput=throughput,
            average_latency=latency, delivery_ratio=delivery,
            saturated=saturated,
        ))
        if saturated:
            if saturated_at is None:
                saturated_at = rate
        elif saturated_at is None:
            stable = rate
    max_throughput = max((o.throughput for o in observations), default=0.0)
    stable_throughput = 0.0
    if stable is not None:
        for observation in observations:
            if abs(observation.offered_rate - stable) <= _EPSILON:
                stable_throughput = observation.throughput
    return SaturationResult(
        saturation_rate=(saturated_at if saturated_at is not None
                         else criteria.max_rate),
        last_stable_rate=stable if stable is not None else 0.0,
        saturated_within_range=saturated_at is not None,
        throughput=stable_throughput or max_throughput,
        max_throughput=max_throughput,
        invocations=len(observations),
        observations=observations,
    )
