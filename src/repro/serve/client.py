"""A minimal stdlib client for the study-serving service.

``urllib.request`` only — the same no-new-dependencies rule as the server.
This is what ``python -m repro submit`` and the end-to-end tests use:
submit a spec, wait for the job, stream its progress events (rebuilt into
the typed :mod:`repro.progress` classes), fetch the result document
verbatim.  Waiting is a blocking request, not a poll loop:
``GET /studies/<id>?wait=<seconds>`` is answered when the job becomes
terminal, so :meth:`ServeClient.wait` normally costs one request however
long the study runs.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional

from ..exceptions import ServeError
from ..progress import ProgressEvent, event_from_dict

#: Default per-request timeout (seconds).
REQUEST_TIMEOUT = 30.0


def _request(url: str, *, method: str = "GET", body: Optional[bytes] = None,
             timeout: float = REQUEST_TIMEOUT) -> bytes:
    request = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        request.add_header("Content-Type", "application/x-yaml")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.read()
    except urllib.error.HTTPError as error:
        detail = ""
        try:
            payload = json.loads(error.read().decode())
            detail = payload.get("error", "")
        except Exception:
            pass
        raise ServeError(
            f"{method} {url} failed: HTTP {error.code}"
            + (f": {detail}" if detail else "")
        ) from error
    except urllib.error.URLError as error:
        raise ServeError(f"{method} {url} failed: {error.reason}") from error


def _json(url: str, **kwargs) -> Dict:
    payload = json.loads(_request(url, **kwargs).decode())
    if not isinstance(payload, dict):
        raise ServeError(f"{url}: expected a JSON object, got "
                         f"{type(payload).__name__}")
    return payload


class ServeClient:
    """One service endpoint (``http://host:port``), stdlib-only."""

    def __init__(self, base_url: str,
                 timeout: float = REQUEST_TIMEOUT) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def health(self) -> Dict:
        return _json(f"{self.base_url}/healthz", timeout=self.timeout)

    def inventory(self) -> Dict:
        return _json(f"{self.base_url}/version", timeout=self.timeout)

    def submit(self, spec_text: str) -> str:
        """POST a Study YAML/JSON spec; returns the job id."""
        payload = _json(f"{self.base_url}/studies", method="POST",
                        body=spec_text.encode(), timeout=self.timeout)
        job_id = payload.get("job")
        if not job_id:
            raise ServeError(f"submission response carried no job id: "
                             f"{payload}")
        return str(job_id)

    def jobs(self) -> List[Dict]:
        return _json(f"{self.base_url}/studies",
                     timeout=self.timeout).get("jobs", [])

    def job_state(self, job_id: str, wait: Optional[float] = None) -> Dict:
        """The job's summary, at once — or, with *wait*, as soon as the job
        is terminal or *wait* seconds (server-capped) have passed."""
        query = "" if wait is None else f"?wait={wait:.3f}"
        return _json(f"{self.base_url}/studies/{job_id}{query}",
                     timeout=self.timeout)

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_interval: float = 0.1) -> Dict:
        """Block until the job is terminal; returns its final summary.

        Each request parks on the server for what is left of *timeout*, but
        never more than half this client's per-request socket timeout, so a
        healthy long job is a string of quiet non-terminal answers rather
        than a socket error; *poll_interval* is only the pause after such an
        answer.  Raises :class:`ServeError` when the deadline passes or the
        study failed (the error carries the server-side traceback).
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(deadline - time.monotonic(), 0.0)
            state = self.job_state(job_id,
                                   wait=min(remaining, self.timeout / 2))
            if state.get("state") == "done":
                return state
            if state.get("state") == "failed":
                raise ServeError(
                    f"job {job_id} failed:\n{state.get('error')}"
                )
            if time.monotonic() > deadline:
                raise ServeError(
                    f"job {job_id} still {state.get('state')!r} after "
                    f"{timeout}s"
                )
            time.sleep(poll_interval)

    def result_text(self, job_id: str) -> str:
        """The finished ``StudyResult`` JSON document, byte-verbatim."""
        return _request(f"{self.base_url}/studies/{job_id}/result",
                        timeout=self.timeout).decode()

    def events(self, job_id: str,
               timeout: float = 300.0) -> Iterator[ProgressEvent]:
        """The job's progress events, rebuilt into their typed classes.

        Streams the JSONL endpoint; the iterator ends when the server
        closes the stream (job reached a terminal state).
        """
        url = f"{self.base_url}/studies/{job_id}/events"
        request = urllib.request.Request(url, method="GET")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as stream:
                for raw in stream:
                    line = raw.decode().strip()
                    if line:
                        yield event_from_dict(json.loads(line))
        except urllib.error.HTTPError as error:
            raise ServeError(
                f"GET {url} failed: HTTP {error.code}") from error
        except urllib.error.URLError as error:
            raise ServeError(f"GET {url} failed: {error.reason}") from error

    def shutdown(self) -> None:
        _request(f"{self.base_url}/shutdown", method="POST", body=b"",
                 timeout=self.timeout)
