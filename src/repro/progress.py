"""Typed progress events for long-running experiment execution.

Long studies used to run dark: the runner, the comparison matrix, the
saturation search and ``Study.run`` emitted nothing until one final summary
line.  This module is the observability seam that fixes that — a small,
typed event stream every execution engine emits through one observer
interface:

* :class:`PlanCached` / :class:`PlanSolved` — one cell's route plan came
  out of the route-plan cache, or was solved (seconds, and whether it was
  stored); "a warm run performs zero solves" is an assertion over these;
* :class:`SweepStarted` — a ``sweep_many`` batch begins (total point count,
  worker count);
* :class:`CacheHit` — a point was served from the result cache without
  touching the simulator;
* :class:`PointStarted` — a cache-miss point is dispatched to a worker;
* :class:`BatchGroupDispatched` — a group of batchable points became one
  vectorized ``simulate_route_set_batch`` call;
* :class:`PointFinished` — a simulated point's statistics landed;
* :class:`SweepFinished` — the whole batch is done.

Every event carries a wall-clock ``timestamp``; the progress-bearing events
(:class:`CacheHit`, :class:`PointFinished`, :class:`SweepFinished`) also
carry the running completion model maintained by :class:`ProgressEmitter`:
points done / total, the running cache-hit count and ratio, and an ETA
estimate extrapolated from the observed simulation throughput.

Observers implement one method, ``emit(event)``.  Three ship here:

* :class:`JsonlObserver` — one compact JSON object per line (machine
  consumers; the CLI's ``--progress jsonl`` puts this on stderr);
* :class:`TtyObserver` — a single live, carriage-return-rewritten progress
  line (the CLI default on interactive stderr);
* :class:`NullObserver` — discards everything (``--progress quiet``).

The emitters deliberately never write to **stdout**: machine-readable
command output stays byte-identical whether progress is on or off.  This
interface is also the seam a future service front door will stream to
clients (ROADMAP item 1).
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, TextIO, Type

from .exceptions import ReproError

#: The accepted ``--progress`` modes, in help order.
PROGRESS_MODES = ("tty", "jsonl", "quiet")


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
@dataclass
class ProgressEvent:
    """Base of every progress event: a kind tag plus a wall-clock stamp."""

    #: Class-level event-kind tag; serialized as the ``event`` field.
    kind: ClassVar[str] = "event"

    timestamp: float = 0.0

    def to_dict(self) -> Dict:
        """This event as one flat, JSON-able mapping (``event`` leads)."""
        payload: Dict = {"event": self.kind}
        payload.update(dataclasses.asdict(self))
        return payload

    def to_json(self) -> str:
        """One compact JSON line (the ``--progress jsonl`` wire format)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


@dataclass
class PlanCached(ProgressEvent):
    """One cell's route plan was answered by the route-plan cache."""

    kind: ClassVar[str] = "plan_cached"

    router: str = ""
    topology: str = ""
    pattern: str = ""
    faults: str = "none"


@dataclass
class PlanSolved(ProgressEvent):
    """One cell's route plan was solved (the router's ``compute_routes``)."""

    kind: ClassVar[str] = "plan_solved"

    router: str = ""
    topology: str = ""
    pattern: str = ""
    faults: str = "none"
    seconds: float = 0.0
    #: False without a cache, and for a plan with a non-optimal MILP solve.
    stored: bool = False


@dataclass
class SweepStarted(ProgressEvent):
    """A ``sweep_many`` batch begins."""

    kind: ClassVar[str] = "sweep_started"

    total_points: int = 0
    workers: int = 1
    label: str = ""


@dataclass
class PointStarted(ProgressEvent):
    """One cache-miss point is dispatched for simulation."""

    kind: ClassVar[str] = "point_started"

    key: str = ""
    offered_rate: float = 0.0


@dataclass
class CacheHit(ProgressEvent):
    """One point was served from the result cache (no simulation)."""

    kind: ClassVar[str] = "cache_hit"

    key: str = ""
    offered_rate: float = 0.0
    done: int = 0
    total: int = 0
    cache_hits: int = 0
    cache_hit_ratio: float = 0.0
    eta_seconds: Optional[float] = None


@dataclass
class BatchGroupDispatched(ProgressEvent):
    """A group of batchable points became one vectorized simulator call."""

    kind: ClassVar[str] = "batch_group_dispatched"

    group_key: str = ""
    size: int = 0


@dataclass
class PointFinished(ProgressEvent):
    """One point's statistics landed (simulated, not cached)."""

    kind: ClassVar[str] = "point_finished"

    key: str = ""
    offered_rate: float = 0.0
    simulated: bool = True
    done: int = 0
    total: int = 0
    cache_hits: int = 0
    cache_hit_ratio: float = 0.0
    eta_seconds: Optional[float] = None


@dataclass
class SweepFinished(ProgressEvent):
    """A whole ``sweep_many`` batch completed."""

    kind: ClassVar[str] = "sweep_finished"

    total: int = 0
    simulated: int = 0
    cache_hits: int = 0
    batch_groups: int = 0
    elapsed_seconds: float = 0.0
    label: str = ""


#: Every event type, keyed by its ``kind`` tag (for deserialization).
EVENT_TYPES: Dict[str, Type[ProgressEvent]] = {
    cls.kind: cls
    for cls in (PlanCached, PlanSolved, SweepStarted, PointStarted, CacheHit,
                BatchGroupDispatched, PointFinished, SweepFinished)
}


def event_from_dict(payload: Dict) -> ProgressEvent:
    """Rebuild a typed event from its :meth:`ProgressEvent.to_dict` form.

    The inverse of the JSONL wire format: ``event_from_dict(json.loads(
    line))`` round-trips every emitted event.  Unknown kinds raise
    :class:`~repro.exceptions.ReproError` with the accepted tags.
    """
    kind = payload.get("event")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ReproError(
            f"unknown progress event kind {kind!r}; accepted: "
            f"{', '.join(sorted(EVENT_TYPES))}"
        )
    fields = {f.name for f in dataclasses.fields(cls)}
    return cls(**{name: value for name, value in payload.items()
                  if name in fields})


# ----------------------------------------------------------------------
# observers
# ----------------------------------------------------------------------
class ProgressObserver:
    """The one-method observer interface every engine emits through.

    Subclass and override :meth:`emit`; observers must never raise (a
    broken progress sink must not kill a long simulation) and must never
    write to stdout (command output stays machine-readable).
    """

    def emit(self, event: ProgressEvent) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        """Release the display (a no-op for most observers)."""


class NullObserver(ProgressObserver):
    """Discards every event (``--progress quiet``)."""

    def emit(self, event: ProgressEvent) -> None:
        pass


class CollectingObserver(ProgressObserver):
    """Keeps every event in a list — the test/service-buffer observer."""

    def __init__(self) -> None:
        self.events: List[ProgressEvent] = []

    def emit(self, event: ProgressEvent) -> None:
        self.events.append(event)

    def kinds(self) -> List[str]:
        """The kind tags of the collected events, in emission order."""
        return [event.kind for event in self.events]


class JsonlObserver(ProgressObserver):
    """One compact JSON object per event, one event per line.

    The stream defaults to stderr so stdout stays byte-identical to a
    progress-free run; every line round-trips through ``json.loads`` and
    :func:`event_from_dict`.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, event: ProgressEvent) -> None:
        try:
            self.stream.write(event.to_json() + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass  # a vanished sink must not kill the run


class TtyObserver(ProgressObserver):
    """A single live progress line, rewritten in place on interactive stderr.

    Renders ``[repro] done/total points, N cached (P%), eta Ss`` after every
    progress-bearing event and erases itself on :meth:`close`, so the
    command's real output (and the trailing timing summary) is never
    interleaved with stale progress text.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._dirty = False

    # ------------------------------------------------------------------
    def _write(self, text: str) -> None:
        try:
            self.stream.write(text)
            self.stream.flush()
        except (OSError, ValueError):
            pass  # a vanished sink must not kill the run

    @staticmethod
    def format_line(event: ProgressEvent) -> Optional[str]:
        """The progress line an event renders to (None: nothing to show)."""
        if isinstance(event, (CacheHit, PointFinished)):
            text = (f"[repro] {event.done}/{event.total} points, "
                    f"{event.cache_hits} cached")
            if event.done:
                text += f" ({100.0 * event.cache_hit_ratio:.0f}%)"
            if event.eta_seconds is not None:
                text += f", eta {event.eta_seconds:.0f}s"
            return text
        if isinstance(event, SweepStarted):
            label = f" [{event.label}]" if event.label else ""
            return (f"[repro] 0/{event.total_points} points, "
                    f"{event.workers} worker(s){label}")
        return None

    def emit(self, event: ProgressEvent) -> None:
        line = self.format_line(event)
        if line is not None:
            self._write("\r\x1b[K" + line)
            self._dirty = True

    def close(self) -> None:
        if self._dirty:
            self._write("\r\x1b[K")
            self._dirty = False


def make_observer(mode: Optional[str],
                  stream: Optional[TextIO] = None) -> ProgressObserver:
    """Build the observer a ``--progress`` mode names.

    ``None`` resolves to the default policy: a live TTY line when the
    stream (stderr unless given) is interactive, quiet otherwise — so
    piped and redirected runs stay byte-clean without any flag.
    """
    target = stream if stream is not None else sys.stderr
    if mode is None:
        try:
            interactive = target.isatty()
        except (AttributeError, ValueError):
            interactive = False
        mode = "tty" if interactive else "quiet"
    key = mode.strip().lower()
    if key == "tty":
        return TtyObserver(target)
    if key == "jsonl":
        return JsonlObserver(target)
    if key == "quiet":
        return NullObserver()
    raise ReproError(
        f"unknown progress mode {mode!r}; accepted: "
        f"{', '.join(PROGRESS_MODES)}"
    )


# ----------------------------------------------------------------------
# the emitter: event construction + the running completion model
# ----------------------------------------------------------------------
@dataclass
class ProgressEmitter:
    """Builds events for one execution batch and stamps the running model.

    The planner calls ``plan_cached`` / ``plan_solved``; the engines call
    the ``sweep_started`` / ``cache_hit`` /
    ``point_started`` / ``batch_group`` / ``point_finished`` /
    ``sweep_finished`` methods; the emitter maintains the completion
    counters and the ETA estimate and forwards fully-populated events to
    the observer.  The ETA extrapolates the observed simulation rate
    (``elapsed / simulated points done``) over the remaining points —
    cache hits complete instantly and are excluded from the rate.

    *clock* is injectable for deterministic tests.
    """

    observer: ProgressObserver
    clock: Callable[[], float] = time.time
    total: int = 0
    done: int = 0
    cache_hits: int = 0
    simulated_done: int = 0
    started_at: float = field(default=0.0)

    def _emit(self, event: ProgressEvent) -> None:
        event.timestamp = self.clock()
        self.observer.emit(event)

    # ------------------------------------------------------------------
    @property
    def cache_hit_ratio(self) -> float:
        return self.cache_hits / self.done if self.done else 0.0

    def eta_seconds(self) -> Optional[float]:
        """Remaining wall-clock estimate, or None before any point lands."""
        if not self.started_at or self.simulated_done <= 0 \
                or self.total <= self.done:
            return None
        elapsed = max(self.clock() - self.started_at, 0.0)
        per_point = elapsed / self.simulated_done
        return (self.total - self.done) * per_point

    def _model_fields(self) -> Dict:
        return {
            "done": self.done,
            "total": self.total,
            "cache_hits": self.cache_hits,
            "cache_hit_ratio": self.cache_hit_ratio,
            "eta_seconds": self.eta_seconds(),
        }

    # ------------------------------------------------------------------
    def plan_cached(self, router: str, topology: str, pattern: str,
                    faults: str) -> None:
        self._emit(PlanCached(router=router, topology=topology,
                              pattern=pattern, faults=faults))

    def plan_solved(self, router: str, topology: str, pattern: str,
                    faults: str, seconds: float, stored: bool) -> None:
        self._emit(PlanSolved(router=router, topology=topology,
                              pattern=pattern, faults=faults,
                              seconds=seconds, stored=stored))

    def sweep_started(self, total_points: int, workers: int,
                      label: str = "") -> None:
        self.total += total_points
        if not self.started_at:
            self.started_at = self.clock()
        self._emit(SweepStarted(total_points=total_points, workers=workers,
                                label=label))

    def cache_hit(self, key: str, offered_rate: float) -> None:
        self.done += 1
        self.cache_hits += 1
        self._emit(CacheHit(key=key, offered_rate=offered_rate,
                            **self._model_fields()))

    def point_started(self, key: str, offered_rate: float) -> None:
        self._emit(PointStarted(key=key, offered_rate=offered_rate))

    def batch_group(self, group_key: str, size: int) -> None:
        self._emit(BatchGroupDispatched(group_key=group_key, size=size))

    def point_finished(self, key: str, offered_rate: float,
                       simulated: bool = True) -> None:
        self.done += 1
        if simulated:
            self.simulated_done += 1
        self._emit(PointFinished(key=key, offered_rate=offered_rate,
                                 simulated=simulated,
                                 **self._model_fields()))

    def sweep_finished(self, total: int, simulated: int, cache_hits: int,
                       batch_groups: int = 0, label: str = "") -> None:
        elapsed = max(self.clock() - self.started_at, 0.0) \
            if self.started_at else 0.0
        self._emit(SweepFinished(total=total, simulated=simulated,
                                 cache_hits=cache_hits,
                                 batch_groups=batch_groups,
                                 elapsed_seconds=elapsed, label=label))


def emitter_for(observer: Optional[ProgressObserver],
                clock: Callable[[], float] = time.time,
                ) -> Optional[ProgressEmitter]:
    """An emitter over *observer*, or None when there is nothing to notify.

    ``None`` observers (and :class:`NullObserver`) cost the engines one
    ``is None`` check per event site instead of event construction.
    """
    if observer is None or isinstance(observer, NullObserver):
        return None
    return ProgressEmitter(observer=observer, clock=clock)


__all__ = [
    "PROGRESS_MODES",
    "EVENT_TYPES",
    "ProgressEvent",
    "PlanCached",
    "PlanSolved",
    "SweepStarted",
    "PointStarted",
    "CacheHit",
    "BatchGroupDispatched",
    "PointFinished",
    "SweepFinished",
    "event_from_dict",
    "ProgressObserver",
    "NullObserver",
    "CollectingObserver",
    "JsonlObserver",
    "TtyObserver",
    "make_observer",
    "ProgressEmitter",
    "emitter_for",
]
