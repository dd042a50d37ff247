"""The asyncio study-serving front door (``python -m repro serve``).

A deliberately small HTTP service on stdlib ``asyncio`` only — no web
framework, no new dependencies.  It turns studies into requests:

========  ==========================  =======================================
method    path                        behaviour
========  ==========================  =======================================
GET       ``/healthz``                liveness probe
GET       ``/version``                service + registry inventory
POST      ``/studies``                body = Study YAML/JSON spec -> job id
GET       ``/studies``                all job summaries
GET       ``/studies/<id>``           one job summary (state, event counts)
GET       ``/studies/<id>/events``    progress events streamed as JSONL
GET       ``/studies/<id>/result``    finished ``StudyResult`` JSON
POST      ``/shutdown``               clean exit
========  ==========================  =======================================

Studies execute on a thread pool through the one shared funnel every other
entry point uses (:func:`repro.study.execute.run_study`), with a
:class:`~repro.serve.jobs.JobObserver` buffering the typed
:mod:`repro.progress` event stream per job; ``/studies/<id>/events`` replays
that buffer and then follows it live, one ``event.to_json()`` per line —
exactly the ``--progress jsonl`` wire format.  The result document is
``StudyResult.to_json()``, byte-identical to ``python -m repro run --format
json`` for the same spec.

The service enables the result cache by default and honours the shared
cache tier (``--shared-cache-dir`` / ``$REPRO_SHARED_CACHE_DIR``), so a
study whose points are warm anywhere in the deployment is answered without
a single simulator invocation — the submission's event stream then carries
``cache_hit`` events for every point and no ``point_started`` at all.
"""

from __future__ import annotations

import asyncio
import json
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from .. import __version__
from ..exceptions import ReproError, ServeError, StudyError
from ..study.execute import run_study
from ..study.spec import Study
from .jobs import JobObserver, JobStore

#: Default bind address: loopback — the service trusts its submitters
#: (specs execute arbitrary registered routers/workloads), so exposure
#: beyond localhost is an explicit deployment decision.
DEFAULT_HOST = "127.0.0.1"

#: Default port; 0 asks the OS for an ephemeral port (tests, smoke runs).
DEFAULT_PORT = 8787

#: Largest accepted request body (a study spec is a few KiB).
MAX_BODY_BYTES = 1 << 20

#: Cadence of the event-stream follow loop and job-state polling.
POLL_INTERVAL = 0.05


def study_from_text(text: str) -> Study:
    """Parse a submission body — JSON first, then YAML — into a Study.

    JSON is tried first because it is a YAML subset with sharper error
    messages; YAML needs the optional PyYAML dependency (absent, JSON
    bodies keep working).  Raises :class:`StudyError` on malformed input.
    """
    text = text.strip()
    if not text:
        raise StudyError("empty study submission")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        try:
            import yaml
        except ImportError:  # pragma: no cover - PyYAML is normally there
            raise StudyError(
                "submission is not valid JSON and PyYAML is unavailable "
                "for YAML parsing"
            )
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise StudyError(f"invalid study spec: {error}") from error
    return Study.from_dict(data)


class StudyService:
    """The serving layer: a job store, an executor pool and the HTTP door.

    Parameters
    ----------
    host / port:
        Bind address; port 0 picks an ephemeral port, readable from
        :attr:`port` once the server is up.
    job_workers:
        Concurrent studies (executor threads).  Each study still fans its
        own points out through its runner's execution backend.
    cache / cache_dir / shared_cache_dir:
        Result-cache policy for served studies.  Caching defaults ON —
        serving exists to answer warm studies from the cache tier.
    workers / backend / profile / execution / queue_dir:
        Forwarded to :func:`run_study` as overrides (``None`` defers to
        each study's own execution policy).
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 *, job_workers: int = 2, cache: bool = True,
                 cache_dir: Optional[str] = None,
                 shared_cache_dir: Optional[str] = None,
                 workers: Optional[int] = None,
                 backend: Optional[str] = None,
                 profile: Optional[str] = None,
                 execution: Optional[str] = None,
                 queue_dir: Optional[str] = None) -> None:
        self.host = host
        self.port = port
        self.store = JobStore()
        self.run_options: Dict = {
            "cache": cache,
            "cache_dir": cache_dir,
            "shared_cache_dir": shared_cache_dir,
            "workers": workers,
            "backend": backend,
            "profile": profile,
            "execution": execution,
            "queue_dir": queue_dir,
        }
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(job_workers)),
            thread_name_prefix="repro-serve-job",
        )
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # job execution (executor threads)
    # ------------------------------------------------------------------
    def submit_text(self, body: str) -> str:
        """Parse and enqueue one submission; returns the job id.

        Raises :class:`StudyError` on a malformed spec — nothing is
        enqueued for an invalid study.
        """
        study = study_from_text(body)
        job = self.store.create(study.name)
        self._pool.submit(self._execute, job.job_id, study)
        return job.job_id

    def _execute(self, job_id: str, study: Study) -> None:
        self.store.mark_running(job_id)
        observer = JobObserver(self.store, job_id)
        try:
            result = run_study(study, observer=observer,
                               **self.run_options)
            self.store.finish(job_id, result.to_json())
        except BaseException:
            self.store.fail(job_id, traceback.format_exc())

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    @staticmethod
    async def _read_request(reader: asyncio.StreamReader
                            ) -> Tuple[str, str, Dict[str, str], bytes]:
        """(method, path, headers, body) of one request, or raise."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise ServeError("malformed HTTP request head")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) < 2:
            raise ServeError(f"malformed request line {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):  # no sign, no junk
            raise ServeError(
                f"malformed Content-Length {declared!r}: expected a "
                f"non-negative integer")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise ServeError(f"request body too large ({length} bytes)")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as error:
            raise ServeError(
                f"request body ended after {len(error.partial)} of the "
                f"{length} bytes Content-Length declared")
        return method, path, headers, body

    @staticmethod
    def _response(status: int, reason: str, body: bytes,
                  content_type: str) -> bytes:
        return (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1") + body

    def _json_response(self, status: int, reason: str, payload) -> bytes:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        return self._response(status, reason, body, "application/json")

    def _error_response(self, status: int, reason: str,
                        message: str) -> bytes:
        return self._json_response(status, reason, {"error": message})

    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, _, body = await self._read_request(reader)
            except ServeError as error:
                writer.write(self._error_response(400, "Bad Request",
                                                  str(error)))
                return
            await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away mid-response
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        if path == "/healthz" and method == "GET":
            writer.write(self._json_response(200, "OK", {"status": "ok"}))
            return
        if path == "/version" and method == "GET":
            writer.write(self._json_response(200, "OK", self._inventory()))
            return
        if path == "/shutdown" and method == "POST":
            writer.write(self._json_response(200, "OK",
                                             {"status": "shutting down"}))
            await writer.drain()
            if self._stop is not None:
                self._stop.set()
            return
        if path == "/studies" and method == "POST":
            await self._handle_submit(body, writer)
            return
        if path == "/studies" and method == "GET":
            writer.write(self._json_response(
                200, "OK", {"jobs": self.store.list_jobs()}))
            return
        if path.startswith("/studies/"):
            await self._handle_job(method, path, writer)
            return
        writer.write(self._error_response(404, "Not Found",
                                          f"no route for {method} {path}"))

    def _inventory(self) -> Dict:
        from ..routing.registry import available_routers
        from ..runner.backends import available_executions
        from ..simulator.backends import available_backends

        return {
            "version": __version__,
            "routers": available_routers(),
            "backends": available_backends(),
            "executions": available_executions(),
        }

    async def _handle_submit(self, body: bytes,
                             writer: asyncio.StreamWriter) -> None:
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            writer.write(self._error_response(400, "Bad Request",
                                              "body is not valid UTF-8"))
            return
        try:
            job_id = self.submit_text(text)
        except (StudyError, ReproError) as error:
            writer.write(self._error_response(400, "Bad Request", str(error)))
            return
        writer.write(self._json_response(202, "Accepted",
                                         {"job": job_id, "state": "queued"}))

    async def _handle_job(self, method: str, path: str,
                          writer: asyncio.StreamWriter) -> None:
        segments = path.strip("/").split("/")
        job_id = segments[1] if len(segments) > 1 else ""
        action = segments[2] if len(segments) > 2 else ""
        job = self.store.get(job_id)
        if job is None:
            writer.write(self._error_response(404, "Not Found",
                                              f"unknown job {job_id!r}"))
            return
        if method != "GET" or len(segments) > 3 or \
                action not in ("", "events", "result"):
            writer.write(self._error_response(404, "Not Found",
                                              f"no route for {method} "
                                              f"{path}"))
            return
        if action == "":
            writer.write(self._json_response(200, "OK", job.to_dict()))
            return
        if action == "result":
            self._write_result(job_id, writer)
            return
        await self._stream_events(job_id, writer)

    def _write_result(self, job_id: str,
                      writer: asyncio.StreamWriter) -> None:
        job = self.store.get(job_id)
        assert job is not None
        if job.state == "failed":
            writer.write(self._error_response(
                500, "Internal Server Error",
                f"study failed:\n{job.error}"))
            return
        if job.result_json is None:
            writer.write(self._error_response(
                409, "Conflict",
                f"job {job_id} is {job.state}; result not ready"))
            return
        # the raw StudyResult.to_json() text, unre-serialised: clients get
        # the byte-identical document `python -m repro run` would print
        writer.write(self._response(200, "OK", job.result_json.encode(),
                                    "application/json"))

    async def _stream_events(self, job_id: str,
                             writer: asyncio.StreamWriter) -> None:
        """Replay the job's buffered events, then follow live as JSONL.

        The response is chunk-free and length-free (``Connection: close``
        delimits it): one ``event.to_json()`` line per event — the
        ``--progress jsonl`` wire format — closing once the job reaches a
        terminal state and the buffer is drained.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/jsonl\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        while True:
            snapshot = self.store.snapshot(job_id)
            assert snapshot is not None  # existence checked by the router
            events = snapshot["events"]
            for event in events[sent:]:
                writer.write((event.to_json() + "\n").encode())
            sent = len(events)
            await writer.drain()
            if snapshot["terminal"]:
                break
            await asyncio.sleep(POLL_INTERVAL)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def serve(self, ready=None) -> None:
        """Bind, announce via *ready(port)*, and serve until shutdown."""
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_BODY_BYTES)
        self.port = server.sockets[0].getsockname()[1]
        if ready is not None:
            ready(self.port)
        try:
            async with server:
                await self._stop.wait()
        finally:
            self._pool.shutdown(wait=False, cancel_futures=True)

    def run(self, ready=None) -> None:
        """Blocking entry point (the CLI's ``serve`` subcommand)."""
        asyncio.run(self.serve(ready=ready))

    def request_shutdown(self) -> None:
        """Ask a running service to exit (thread-safe)."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)


class ServiceHandle:
    """A service running on a background thread (tests, smoke scripts)."""

    def __init__(self, service: StudyService, thread: threading.Thread):
        self.service = service
        self.thread = thread

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def base_url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def stop(self, timeout: float = 10.0) -> None:
        self.service.request_shutdown()
        self.thread.join(timeout)


def start_in_thread(service: StudyService,
                    timeout: float = 10.0) -> ServiceHandle:
    """Run *service* on a daemon thread; returns once the port is bound."""
    bound = threading.Event()
    failure: list = []

    def main() -> None:
        try:
            service.run(ready=lambda port: bound.set())
        except BaseException as error:  # surface bind errors to the caller
            failure.append(error)
            bound.set()

    thread = threading.Thread(target=main, daemon=True,
                              name="repro-serve")
    thread.start()
    if not bound.wait(timeout):
        raise ServeError(f"service did not come up within {timeout}s")
    if failure:
        raise ServeError(f"service failed to start: {failure[0]}")
    return ServiceHandle(service, thread)
