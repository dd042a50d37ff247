"""Job bookkeeping for the study-serving service.

One submitted study is one :class:`Job`: an id, a lifecycle state
(``queued`` → ``running`` → ``done`` / ``failed``), the buffered
:mod:`repro.progress` event stream its execution emitted, and — on success —
the finished :class:`~repro.study.execute.StudyResult` rendered to the same
JSON document ``python -m repro run --format json`` prints (byte-identical,
which is what the end-to-end tests assert).

:class:`JobStore` is the thread-safe registry the asyncio front door and the
executor threads share.  It holds no waiting machinery of its own: every
mutation calls the store's one *listener* with the job id, on the mutating
thread and after the lock is released, and whoever needs to block until a
job changes (the service's parked ``?wait=`` requests and ``/events``
followers) hangs its own wake-up off that call.
:class:`JobObserver` adapts one job to the
:class:`~repro.progress.ProgressObserver` interface, so the runner's typed
events buffer on the job as they are emitted — the service streams them to
clients as JSONL, reusing the event wire format verbatim.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..progress import ProgressEvent, ProgressObserver

#: The job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

#: States a job can never leave.
TERMINAL_STATES = ("done", "failed")


@dataclass
class Job:
    """One submitted study and everything its execution produced."""

    job_id: str
    study_name: str
    state: str = "queued"
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: The buffered progress-event stream, in emission order.
    events: List[ProgressEvent] = field(default_factory=list)
    #: Event count per kind tag (``cache_hit``, ``point_finished``, ...).
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: ``StudyResult.to_json()`` of the finished study (``done`` only).
    result_json: Optional[str] = None
    #: The failure message (``failed`` only).
    error: Optional[str] = None

    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict:
        """The job summary the state endpoints return (no result body)."""
        return {
            "job": self.job_id,
            "study": self.study_name,
            "state": self.state,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": len(self.events),
            "event_counts": dict(self.event_counts),
            "error": self.error,
        }


class JobStore:
    """The thread-safe job registry shared by the service's layers.

    Every mutation happens under one lock and then, with the lock released,
    reports the job's id to *listener* on the mutating thread — the push
    that replaces polling the store.  The listener must be cheap, must not
    raise and must not call back into the store's mutators.  Jobs are never
    evicted — the store lives as long as the service process, and a study's
    result stays fetchable until shutdown.
    """

    def __init__(self,
                 listener: Optional[Callable[[str], None]] = None) -> None:
        self._lock = threading.Lock()
        self._notify = listener or (lambda job_id: None)
        self._jobs: Dict[str, Job] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    def create(self, study_name: str) -> Job:
        with self._lock:
            job = Job(job_id=f"job-{next(self._ids)}", study_name=study_name)
            self._jobs[job.job_id] = job
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def summary(self, job_id: str) -> Optional[Dict]:
        """:meth:`Job.to_dict` taken under the lock, or ``None`` if unknown.

        What the state endpoint answers with: a reader woken by the job's
        last mutation never sees a terminal state without its timestamps
        and event counts.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.to_dict()

    def list_jobs(self) -> List[Dict]:
        with self._lock:
            return [job.to_dict() for job in self._jobs.values()]

    # ------------------------------------------------------------------
    def mark_running(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.state = "running"
            job.started_at = time.time()
        self._notify(job_id)

    def append_event(self, job_id: str, event: ProgressEvent) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.events.append(event)
            job.event_counts[event.kind] = \
                job.event_counts.get(event.kind, 0) + 1
        self._notify(job_id)

    def finish(self, job_id: str, result_json: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.state = "done"
            job.finished_at = time.time()
            job.result_json = result_json
        self._notify(job_id)

    def fail(self, job_id: str, error: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.state = "failed"
            job.finished_at = time.time()
            job.error = error
        self._notify(job_id)

    # ------------------------------------------------------------------
    def snapshot(self, job_id: str, since: int = 0) -> Optional[Dict]:
        """State + a copy of the events from index *since* on, atomically
        (for streamers, which pass how many events they have sent)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            return {
                "state": job.state,
                "terminal": job.is_terminal(),
                "events": job.events[since:],
            }


class JobObserver(ProgressObserver):
    """Buffers one execution's progress events onto its job.

    Attached to the runner through :func:`repro.study.execute.run_study`'s
    ``observer`` parameter; emits into the store under its lock, so the
    service can stream a consistent prefix of the event list at any time.
    Never raises and never writes stdout (the observer contract).
    """

    def __init__(self, store: JobStore, job_id: str) -> None:
        self.store = store
        self.job_id = job_id

    def emit(self, event: ProgressEvent) -> None:
        try:
            self.store.append_event(self.job_id, event)
        except Exception:
            pass  # a broken buffer must not kill the study
