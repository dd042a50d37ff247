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
GET       ``/studies/<id>?wait=<s>``  the same summary, once the job is
                                      terminal or *s* seconds have passed
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

Nothing here polls.  A request that has to outlast the moment it arrives —
``?wait=`` on a running job, an ``/events`` follower that has caught up — is
*parked* (:class:`_Parked`): every job mutation on an executor thread
reaches the event loop through the store's listener and
``loop.call_soon_threadsafe`` and wakes the requests parked on that job.
``wait`` must be a finite non-negative number (``400`` otherwise) and is
clamped to :data:`MAX_WAIT_SECONDS`; a parked request also ends when its
peer hangs up or the service shuts down, and a peer that does not deliver a
whole request within :data:`READ_TIMEOUT` is answered ``408``.

The service enables the result cache by default and honours the shared
cache tier (``--shared-cache-dir`` / ``$REPRO_SHARED_CACHE_DIR``), so a
study whose points are warm anywhere in the deployment is answered without
a single simulator invocation — the submission's event stream then carries
``cache_hit`` events for every point and no ``point_started`` at all.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterator, Optional, Set, Tuple
from urllib.parse import parse_qs

from .. import __version__
from ..exceptions import ReproError, ServeError, StudyError
from ..study.execute import run_study
from ..study.spec import Study
from .jobs import Job, JobObserver, JobStore

#: Default bind address: loopback — the service trusts its submitters
#: (specs execute arbitrary registered routers/workloads), so exposure
#: beyond localhost is an explicit deployment decision.
DEFAULT_HOST = "127.0.0.1"

#: Default port; 0 asks the OS for an ephemeral port (tests, smoke runs).
DEFAULT_PORT = 8787

#: Largest accepted request body (a study spec is a few KiB).
MAX_BODY_BYTES = 1 << 20

#: Longest a ``GET /studies/<id>?wait=<seconds>`` request stays parked; a
#: longer *wait* is clamped, and the client asks again.
MAX_WAIT_SECONDS = 30.0

#: Seconds a peer has to deliver its whole request, head and body.
READ_TIMEOUT = 10.0


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


class _Parked:
    """One request held open on a job: a ``?wait=`` or an ``/events`` follower.

    A single :class:`asyncio.Event` with four setters — a mutation of the
    job, the peer hanging up, the wait's deadline, service shutdown.  Only
    the first is a reason to look at the job again; the other three
    *release* the request, and :meth:`changed` answers ``False`` from then
    on.  The event stays registered for the request's whole life, so a
    mutation that lands while the request is busy writing is not lost: the
    next :meth:`changed` returns at once.  Event-loop thread only.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 timeout: Optional[float]) -> None:
        self._event = asyncio.Event()
        self._released = False
        self._peer = asyncio.ensure_future(self._until_peer_gone(reader))
        self._peer.add_done_callback(lambda _: self.release())
        self._timer = None if timeout is None else \
            asyncio.get_running_loop().call_later(timeout, self.release)

    @staticmethod
    async def _until_peer_gone(reader: asyncio.StreamReader) -> None:
        """Discard whatever else the peer sends; return at its EOF."""
        try:
            while await reader.read(65536):
                pass
        except ConnectionError:
            pass

    def wake(self) -> None:
        self._event.set()

    def release(self) -> None:
        self._released = True
        self._event.set()

    async def changed(self) -> bool:
        """Park until the job mutates (``True``) or the request is released."""
        if not self._released:
            await self._event.wait()
            self._event.clear()
        return not self._released

    def close(self) -> None:
        self._peer.cancel()
        if self._timer is not None:
            self._timer.cancel()


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
        self.store = JobStore(listener=self._job_changed)
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
        #: the requests parked on each job (event-loop thread only)
        self._parked: Dict[str, Set[_Parked]] = {}

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
    # wake-ups: executor threads -> event loop -> parked requests
    # ------------------------------------------------------------------
    def _job_changed(self, job_id: str) -> None:
        """The store's listener: runs on whichever thread mutated the job."""
        if self._loop is None:
            return  # not serving yet: nothing can be parked
        try:
            self._loop.call_soon_threadsafe(self._wake, job_id)
        except RuntimeError:
            pass  # the loop closed under a job that outlived the service

    def _wake(self, job_id: str) -> None:
        for parked in self._parked.get(job_id, ()):
            parked.wake()

    @contextlib.contextmanager
    def _park(self, job_id: str, reader: asyncio.StreamReader,
              timeout: Optional[float] = None) -> Iterator[_Parked]:
        """Register a request on *job_id* for as long as the block runs.

        Enter it *before* reading the job, so that no mutation falls between
        the read and the first :meth:`_Parked.changed`.
        """
        parked = _Parked(reader, timeout)
        self._parked.setdefault(job_id, set()).add(parked)
        if self._stop.is_set():
            parked.release()
        try:
            yield parked
        finally:
            parked.close()
            waiting = self._parked[job_id]
            waiting.discard(parked)
            if not waiting:
                del self._parked[job_id]

    def _begin_shutdown(self) -> None:
        """Stop serving and let every parked request answer and go."""
        assert self._stop is not None
        self._stop.set()
        for waiting in self._parked.values():
            for parked in waiting:
                parked.release()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    @staticmethod
    async def _read_request(reader: asyncio.StreamReader
                            ) -> Tuple[str, str, str, bytes]:
        """(method, path, query, body) of one request, or raise."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise ServeError("malformed HTTP request head")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) < 2:
            raise ServeError(f"malformed request line {lines[0]!r}")
        method = parts[0].upper()
        path, _, query = parts[1].partition("?")
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
        return method, path, query, body

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
                method, path, query, body = await asyncio.wait_for(
                    self._read_request(reader), READ_TIMEOUT)
            except ServeError as error:
                writer.write(self._error_response(400, "Bad Request",
                                                  str(error)))
                return
            except asyncio.TimeoutError:
                writer.write(self._error_response(
                    408, "Request Timeout",
                    f"no complete request within {READ_TIMEOUT:g}s"))
                return
            await self._route(method, path, query, body, reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away mid-response
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _route(self, method: str, path: str, query: str, body: bytes,
                     reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Dispatch on method and path; only the job-state route reads the
        query, every other route ignores one."""
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
            self._begin_shutdown()
            return
        if path == "/studies" and method == "POST":
            await self._handle_submit(body, writer)
            return
        if path == "/studies" and method == "GET":
            writer.write(self._json_response(
                200, "OK", {"jobs": self.store.list_jobs()}))
            return
        if path.startswith("/studies/"):
            await self._handle_job(method, path, query, reader, writer)
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

    async def _handle_job(self, method: str, path: str, query: str,
                          reader: asyncio.StreamReader,
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
            await self._write_summary(job, query, reader, writer)
            return
        if action == "result":
            self._write_result(job_id, writer)
            return
        await self._stream_events(job_id, reader, writer)

    async def _write_summary(self, job: Job, query: str,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """The job summary — with ``?wait=<seconds>``, held back until the
        job is terminal or the (clamped) wait is over."""
        waits = parse_qs(query, keep_blank_values=True).get("wait")
        if waits:
            try:
                wait = float(waits[-1])
            except ValueError:
                wait = math.nan
            if not (math.isfinite(wait) and wait >= 0):
                writer.write(self._error_response(
                    400, "Bad Request",
                    f"malformed wait {waits[-1]!r}: expected a finite "
                    f"non-negative number of seconds"))
                return
            with self._park(job.job_id, reader,
                            min(wait, MAX_WAIT_SECONDS)) as parked:
                while not job.is_terminal() and await parked.changed():
                    pass
        writer.write(self._json_response(200, "OK",
                                         self.store.summary(job.job_id)))

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
                             reader: asyncio.StreamReader,
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
        with self._park(job_id, reader) as parked:
            while True:
                snapshot = self.store.snapshot(job_id, since=sent)
                assert snapshot is not None  # existence checked by the router
                for event in snapshot["events"]:
                    writer.write((event.to_json() + "\n").encode())
                sent += len(snapshot["events"])
                await writer.drain()
                if snapshot["terminal"] or not await parked.changed():
                    break

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
            self._loop.call_soon_threadsafe(self._begin_shutdown)


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
