"""Study serving: the service layer that turns studies into requests.

This package is ROADMAP item 1's front door.  The reproduction's execution
plane was already deterministic and content-addressed — cache keys are
stable across processes, hosts and ``PYTHONHASHSEED`` — and this package
adds the three serving layers on top:

* :mod:`repro.serve.jobs` — thread-safe job bookkeeping: one submitted
  study is one :class:`Job` carrying its lifecycle state, its buffered
  :mod:`repro.progress` event stream and its finished result document;
* :mod:`repro.serve.service` — the asyncio HTTP front door
  (``python -m repro serve``): POST a Study YAML/JSON spec for a job id,
  wait for the job on a parked ``?wait=`` request, stream progress events
  as JSONL, fetch the finished ``StudyResult`` JSON (byte-identical to
  ``python -m repro run``);
* :mod:`repro.serve.client` — the stdlib ``urllib`` client behind
  ``python -m repro submit`` and the end-to-end tests.

Execution stays on the existing engines (:func:`repro.study.execute.run_study`
→ :class:`repro.runner.engine.ExperimentRunner`), so served studies hit the
same result cache — layered over a deployment-shared directory
(:mod:`repro.runner.cache`) — and the same execution backends
(:mod:`repro.runner.backends`: in-process ``local`` or the distributed
file-backed ``queue`` drained by ``python -m repro worker`` fleets).  A
study whose every point is warm anywhere in the deployment is answered
without a single simulator invocation.
"""

from .client import ServeClient
from .jobs import JOB_STATES, Job, JobObserver, JobStore
from .service import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ServiceHandle,
    StudyService,
    start_in_thread,
    study_from_text,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "JOB_STATES",
    "Job",
    "JobObserver",
    "JobStore",
    "ServeClient",
    "ServiceHandle",
    "StudyService",
    "start_in_thread",
    "study_from_text",
]
