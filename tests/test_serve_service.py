"""End-to-end tests of the study-serving service (:mod:`repro.serve`).

One in-thread service on an ephemeral port serves the whole module; the
tests drive it through the stdlib :class:`~repro.serve.client.ServeClient`
exactly as ``python -m repro submit`` does.  The acceptance assertions live
here: the served result document is byte-identical to ``python -m repro run
--format json``, and a warm resubmission completes entirely from the cache
(one ``cache_hit`` event per point, zero ``point_started``).

Waiting is push, not poll (``GET /studies/<id>?wait=``): the tests of that
count requests and events instead of timing them, and a structural guard
keeps the poll loops from growing back.
"""

from __future__ import annotations

import ast
import json
import socket
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import urlsplit

import pytest

import repro.serve.jobs as jobs_module
import repro.serve.service as service_module
from repro.exceptions import ServeError, StudyError
from repro.progress import PointStarted, ProgressEvent
from repro.serve import (
    JobStore,
    ServeClient,
    StudyService,
    start_in_thread,
    study_from_text,
)
from repro.serve.client import _json
from repro.study import Study, run_study

EXAMPLES = Path(__file__).parent.parent / "examples" / "studies"
SMOKE_TEXT = (EXAMPLES / "smoke.yaml").read_text()


def _connect(base_url: str) -> socket.socket:
    """A raw connection to the service (every blocking call: 10 s)."""
    url = urlsplit(base_url)
    return socket.create_connection((url.hostname, url.port), timeout=10)


def _read_all(connection: socket.socket) -> bytes:
    """Everything the service sends until it closes the connection."""
    reply = b""
    while True:
        chunk = connection.recv(65536)
        if not chunk:
            return reply
        reply += chunk


def _until(condition, timeout: float = 10.0) -> None:
    """Let the service's thread reach a state the test can only observe."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


# ----------------------------------------------------------------------
# unit layer: submission parsing and the job store
# ----------------------------------------------------------------------
class TestStudyFromText:
    def test_yaml_submission(self):
        study = study_from_text(SMOKE_TEXT)
        assert study.name == "smoke"
        assert len(study.scenarios) == 1

    def test_json_submission(self):
        study = study_from_text(json.dumps(
            study_from_text(SMOKE_TEXT).to_dict()))
        assert study.name == "smoke"

    def test_empty_submission(self):
        with pytest.raises(StudyError, match="empty"):
            study_from_text("   \n")

    def test_malformed_submission(self):
        with pytest.raises(StudyError):
            study_from_text("{not json: [and not yaml")

    def test_schema_violation(self):
        with pytest.raises(StudyError):
            study_from_text(json.dumps({"name": "x"}))  # no scenarios


class TestJobStore:
    def test_lifecycle(self):
        store = JobStore()
        job = store.create("smoke")
        assert job.job_id == "job-1"
        assert job.state == "queued"
        assert not job.is_terminal()

        store.mark_running(job.job_id)
        assert store.get(job.job_id).state == "running"

        event = ProgressEvent()
        store.append_event(job.job_id, event)
        store.append_event(job.job_id, event)
        assert store.get(job.job_id).event_counts == {event.kind: 2}

        store.finish(job.job_id, '{"rows": []}')
        finished = store.get(job.job_id)
        assert finished.state == "done"
        assert finished.is_terminal()
        assert finished.result_json == '{"rows": []}'
        assert finished.finished_at is not None

    def test_failure_and_listing(self):
        store = JobStore()
        job = store.create("smoke")
        store.fail(job.job_id, "boom")
        assert store.get(job.job_id).state == "failed"
        summaries = store.list_jobs()
        assert len(summaries) == 1
        assert summaries[0]["state"] == "failed"
        assert summaries[0]["error"] == "boom"

    def test_snapshot(self):
        store = JobStore()
        job = store.create("smoke")
        snapshot = store.snapshot(job.job_id)
        assert snapshot == {"state": "queued", "terminal": False,
                            "events": []}
        assert store.snapshot("job-99") is None
        events = [PointStarted(key=f"point-{index}") for index in range(3)]
        for event in events:
            store.append_event(job.job_id, event)
        assert store.snapshot(job.job_id)["events"] == events
        assert store.snapshot(job.job_id, since=2)["events"] == events[2:]

    def test_summary_is_the_job_dict_or_none(self):
        store = JobStore()
        job = store.create("smoke")
        assert store.summary(job.job_id) == job.to_dict()
        assert store.summary("job-99") is None

    def test_every_mutation_reports_to_the_listener(self):
        heard = []
        store = JobStore(listener=heard.append)
        first, second = store.create("a"), store.create("b")
        assert heard == []  # nobody can be waiting on a job not yet known
        store.mark_running(first.job_id)
        store.append_event(first.job_id, ProgressEvent())
        store.fail(second.job_id, "boom")
        store.finish(first.job_id, "{}")
        assert heard == ["job-1", "job-1", "job-2", "job-1"]

    def test_ids_are_sequential(self):
        store = JobStore()
        assert [store.create("s").job_id for _ in range(3)] == \
            ["job-1", "job-2", "job-3"]


# ----------------------------------------------------------------------
# end-to-end layer: one shared in-thread service
# ----------------------------------------------------------------------
class ServedFixture:
    """The module's shared in-thread service plus its stdlib client."""

    def __init__(self, service: StudyService, client: ServeClient) -> None:
        self.service = service
        self.client = client


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    service = StudyService(port=0, cache_dir=str(cache_dir), workers=1)
    handle = start_in_thread(service)
    yield ServedFixture(service, ServeClient(handle.base_url))
    handle.stop()


class TestServiceEndpoints:
    def test_health(self, served):
        assert served.client.health() == {"status": "ok"}

    def test_inventory(self, served):
        inventory = served.client.inventory()
        assert "dor" in inventory["routers"]
        assert "fast" in inventory["backends"]
        assert inventory["executions"] == ["local", "queue"]
        assert inventory["version"]

    def test_unknown_route_is_404(self, served):
        with pytest.raises(ServeError, match="HTTP 404"):
            _json(f"{served.client.base_url}/no-such-route")

    def test_unknown_job_is_404(self, served):
        with pytest.raises(ServeError, match="HTTP 404"):
            served.client.job_state("job-999")

    def test_malformed_spec_is_400(self, served):
        with pytest.raises(ServeError, match="HTTP 400"):
            served.client.submit("{not a spec")

    def test_query_string_is_not_part_of_the_path(self, served):
        base = served.client.base_url
        job = served.service.store.create("queried")
        plain = served.client.job_state(job.job_id)
        assert set(plain) == {"job", "study", "state", "created_at",
                              "started_at", "finished_at", "events",
                              "event_counts", "error"}
        assert _json(f"{base}/studies/{job.job_id}?x=1") == plain
        # only the job-state route reads its query; elsewhere it is ignored
        assert _json(f"{base}/healthz?wait=abc") == {"status": "ok"}
        assert _json(f"{base}/studies?wait=abc")["jobs"]
        with pytest.raises(ServeError, match="HTTP 409"):
            _json(f"{base}/studies/{job.job_id}/result?wait=abc")
        with pytest.raises(ServeError,
                           match="HTTP 404: unknown job 'job-999'$"):
            _json(f"{base}/studies/job-999?wait=30")


class TestHostileRequests:
    """Malformed framing is a 400 like any other malformed head — never an
    exception out of the connection callback (which asyncio reports as
    "Unhandled exception in client_connected_cb" and answers with nothing).
    """

    @staticmethod
    def _exchange(served, request: bytes) -> bytes:
        """Send raw bytes, half-close, and read the whole reply."""
        with _connect(served.client.base_url) as connection:
            connection.sendall(request)
            connection.shutdown(socket.SHUT_WR)
            return _read_all(connection)

    @staticmethod
    def _assert_refused(served, caplog, reply: bytes, status: bytes,
                        needle: str) -> None:
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 " + status)
        assert needle in json.loads(body)["error"]
        # the service survived and nothing reached asyncio's last resort
        assert served.client.health() == {"status": "ok"}
        assert not [record for record in caplog.records
                    if record.name == "asyncio"]

    def _assert_bad_request(self, served, caplog, request: bytes,
                            needle: str) -> None:
        self._assert_refused(served, caplog, self._exchange(served, request),
                             b"400 Bad Request", needle)

    @pytest.mark.parametrize("length", ["abc", "-5", "+5", "1e3", "\xb2"])
    def test_malformed_content_length_is_400(self, served, caplog, length):
        self._assert_bad_request(
            served, caplog,
            f"POST /studies HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
            .encode("latin-1"),
            "malformed Content-Length")

    def test_truncated_body_is_400(self, served, caplog):
        self._assert_bad_request(
            served, caplog,
            b"POST /studies HTTP/1.1\r\nContent-Length: 50\r\n\r\nname: x",
            "ended after 7 of the 50 bytes")

    def test_peer_gone_mid_body_is_a_quiet_close(self, served, caplog):
        connection = _connect(served.client.base_url)
        connection.sendall(b"POST /studies HTTP/1.1\r\n"
                           b"Content-Length: 50\r\n\r\nname: x")
        connection.close()  # nobody left to read the 400
        assert served.client.health() == {"status": "ok"}
        assert not [record for record in caplog.records
                    if record.name == "asyncio"]

    @pytest.mark.parametrize("wait", ["abc", "-1", "nan", "inf", ""])
    def test_malformed_wait_is_400(self, served, caplog, wait):
        job = served.service.store.create("waited")
        self._assert_bad_request(
            served, caplog,
            f"GET /studies/{job.job_id}?wait={wait} HTTP/1.1\r\n\r\n"
            .encode(),
            "malformed wait")

    @pytest.mark.parametrize("sent", [
        b"",
        b"GET /healthz HTT",
        b"POST /studies HTTP/1.1\r\nContent-Length: 9\r\n\r\nhalf",
    ], ids=["nothing", "half-a-head", "half-a-body"])
    def test_stalled_request_is_answered_408(self, served, caplog,
                                             monkeypatch, sent):
        """A peer that connects and then stalls (no half-close: it just
        stops sending) must not pin its handler forever."""
        monkeypatch.setattr(service_module, "READ_TIMEOUT", 0.2)
        with _connect(served.client.base_url) as connection:
            connection.sendall(sent)
            reply = _read_all(connection)
        self._assert_refused(served, caplog, reply, b"408 Request Timeout",
                             "no complete request within 0.2s")

    def test_parked_waiter_whose_peer_is_gone_is_dropped(self, served,
                                                         caplog):
        job = served.service.store.create("abandoned")  # never runs
        parked = served.service._parked
        connection = _connect(served.client.base_url)
        connection.sendall(
            f"GET /studies/{job.job_id}?wait=30 HTTP/1.1\r\n\r\n".encode())
        _until(lambda: job.job_id in parked)
        connection.close()
        _until(lambda: job.job_id not in parked)
        assert not [record for record in caplog.records
                    if record.name == "asyncio"]

    def test_shutdown_releases_every_parked_request(self):
        service = StudyService(port=0, cache=False)
        handle = start_in_thread(service)
        job = service.store.create("stuck")  # never runs
        target = f"/studies/{job.job_id}"
        with _connect(handle.base_url) as waiter, \
                _connect(handle.base_url) as follower:
            waiter.sendall(f"GET {target}?wait=30 HTTP/1.1\r\n\r\n".encode())
            follower.sendall(f"GET {target}/events HTTP/1.1\r\n\r\n".encode())
            _until(lambda: len(service._parked.get(job.job_id, ())) == 2)
            ServeClient(handle.base_url).shutdown()
            head, _, body = _read_all(waiter).partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert json.loads(body)["state"] == "queued"
            assert _read_all(follower).startswith(b"HTTP/1.1 200 OK")
        handle.thread.join(10)
        assert not handle.thread.is_alive()
        assert not service._parked


class TestServedStudy:
    def test_cold_then_warm(self, served, tmp_path):
        # cold: every point simulates
        job_id = served.client.submit(SMOKE_TEXT)
        state = served.client.wait(job_id, timeout=300)
        assert state["state"] == "done"
        counts = state["event_counts"]
        assert counts.get("point_finished") == 2
        assert counts.get("cache_hit", 0) == 0

        served_text = served.client.result_text(job_id)

        # byte-identity: the service's result document is exactly what
        # `python -m repro run --format json` prints for the same spec
        expected = run_study(Study.from_file(EXAMPLES / "smoke.yaml"),
                             cache=True, cache_dir=str(tmp_path),
                             workers=1).to_json()
        assert served_text == expected

        # warm: the same submission completes entirely from the cache —
        # one cache_hit per point, no point ever started
        warm_id = served.client.submit(SMOKE_TEXT)
        warm = served.client.wait(warm_id, timeout=300)
        warm_counts = warm["event_counts"]
        assert warm_counts.get("cache_hit") == 2
        assert "point_started" not in warm_counts
        assert "point_finished" not in warm_counts
        assert served.client.result_text(warm_id) == served_text

    def test_event_stream_round_trips(self, served):
        job_id = served.client.submit(SMOKE_TEXT)
        served.client.wait(job_id, timeout=300)
        events = list(served.client.events(job_id))
        kinds = [event.kind for event in events]
        # one plan event per planned cell, then the sweep
        assert kinds[0] in ("plan_cached", "plan_solved")
        assert [kind for kind in kinds
                if not kind.startswith("plan_")][0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        assert all(isinstance(event, ProgressEvent) for event in events)
        # the typed rebuild preserves the buffered stream one-for-one
        state = served.client.job_state(job_id)
        assert len(events) == state["events"]

    def test_job_listing_covers_submissions(self, served):
        jobs = served.client.jobs()
        assert jobs, "earlier submissions should be listed"
        assert any(job["study"] == "smoke" for job in jobs)

    def test_result_before_completion_is_409(self, served):
        # a queued job that never runs: created directly in the store
        job = served.service.store.create("stuck")
        with pytest.raises(ServeError, match="HTTP 409"):
            served.client.result_text(job.job_id)

    def test_unknown_router_is_rejected_at_submission(self, served):
        """Spec validation happens before a job exists: nothing enqueues."""
        broken = SMOKE_TEXT.replace("routers: [dor]",
                                    "routers: [no-such-router]")
        before = len(served.client.jobs())
        with pytest.raises(ServeError, match="no-such-router"):
            served.client.submit(broken)
        assert len(served.client.jobs()) == before

    def test_failed_job_result_is_500(self, served):
        job = served.service.store.create("doomed")
        served.service.store.fail(job.job_id, "Traceback: boom")
        with pytest.raises(ServeError, match="HTTP 500"):
            served.client.result_text(job.job_id)
        with pytest.raises(ServeError, match="boom"):
            served.client.wait(job.job_id, timeout=5)


# ----------------------------------------------------------------------
# push, not poll: counted, never timed
# ----------------------------------------------------------------------
#: Events the held job emits before / after the test opens its gate.
HELD_EVENTS = (3, 2)


@pytest.fixture
def held(monkeypatch):
    """``run_study`` swapped for a job that stays open until the test says.

    It emits ``HELD_EVENTS[0]`` events, blocks on the yielded gate, emits
    ``HELD_EVENTS[1]`` more and finishes — so what a waiter or a follower
    does *while the job runs* is decided by the test, not by a timer.
    """
    gate = threading.Event()

    def held_study(study, observer=None, **options):
        before, after = HELD_EVENTS
        for index in range(before):
            observer.emit(PointStarted(key=f"point-{index}"))
        gate.wait(60)
        for index in range(before, before + after):
            observer.emit(PointStarted(key=f"point-{index}"))
        return SimpleNamespace(to_json=lambda: '{"rows": []}')

    monkeypatch.setattr(service_module, "run_study", held_study)
    yield gate
    gate.set()


class CountingClient(ServeClient):
    """Counts the job-state requests :meth:`wait` is built from."""

    state_requests = 0

    def job_state(self, job_id, wait=None):
        self.state_requests += 1
        return super().job_state(job_id, wait)


class TestPushNotPoll:
    def test_wait_is_one_request_however_long_the_job_runs(self, served,
                                                           held):
        client = CountingClient(served.client.base_url)
        job_id = client.submit(SMOKE_TEXT)
        threading.Timer(0.3, held.set).start()
        state = client.wait(job_id, timeout=60)
        assert client.state_requests == 1
        assert state["state"] == "done"
        assert state["events"] == sum(HELD_EVENTS)
        assert state["event_counts"] == {"point_started": sum(HELD_EVENTS)}
        assert state["finished_at"] >= state["started_at"]
        assert state == served.client.job_state(job_id)  # the same summary

    def test_short_wait_answers_non_terminal_and_the_client_asks_again(
            self, served, held, monkeypatch):
        client = CountingClient(served.client.base_url)
        job_id = client.submit(SMOKE_TEXT)
        early = client.job_state(job_id, wait=0.05)  # the gate is shut
        assert early["state"] in ("queued", "running")
        # a wait beyond the server's cap is clamped, not refused
        monkeypatch.setattr(service_module, "MAX_WAIT_SECONDS", 0.05)
        assert client.job_state(job_id, wait=3600)["state"] == "running"
        client.state_requests = 0
        threading.Timer(0.3, held.set).start()
        state = client.wait(job_id, timeout=60, poll_interval=0.01)
        assert state["state"] == "done"
        assert client.state_requests >= 2

    def test_wait_deadline_names_the_state_it_gave_up_on(self, served, held):
        job_id = served.client.submit(SMOKE_TEXT)
        with pytest.raises(ServeError, match=f"job {job_id} still 'running' "
                                             f"after 0.2s"):
            served.client.wait(job_id, timeout=0.2, poll_interval=0.01)

    def test_event_stream_follows_a_live_job_in_order(self, served, held):
        job_id = served.client.submit(SMOKE_TEXT)
        stream = served.client.events(job_id)
        before, after = HELD_EVENTS
        # replayed while the job is held open ...
        replayed = [next(stream).key for _ in range(before)]
        held.set()
        # ... then followed live, until the terminal state closes the stream
        followed = [event.key for event in stream]
        assert replayed + followed == \
            [f"point-{index}" for index in range(before + after)]
        assert served.client.job_state(job_id)["state"] == "done"
        assert not served.service._parked

    def test_no_wake_up_is_lost_under_concurrent_waiters(self, served,
                                                         monkeypatch):
        """Eight clients over two executor threads, thread switches forced
        every 10 µs.  Each job outlasts the request that waits for it, so
        the waiter is parked when the job finishes; a lost wake-up would
        leave it parked for 15 s — half the client's socket timeout — far
        beyond the bound."""
        def quick_study(study, observer=None, **options):
            for index in range(3):
                time.sleep(0.002)
                observer.emit(PointStarted(key=f"point-{index}"))
            return SimpleNamespace(to_json=lambda: '{"rows": []}')

        monkeypatch.setattr(service_module, "run_study", quick_study)
        answers, requests = [], []

        def submit_and_wait():
            client = CountingClient(served.client.base_url)
            for _ in range(10):
                state = client.wait(client.submit(SMOKE_TEXT), timeout=60)
                answers.append((state["state"], state["events"]))
            requests.append(client.state_requests)

        threads = [threading.Thread(target=submit_and_wait)
                   for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            for thread in threads:
                thread.join(max(deadline - time.monotonic(), 0))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [("done", 3)] * 80
        assert requests == [10] * 8
        assert not served.service._parked


def _sleep_calls(source: str):
    """Line numbers of every ``sleep(...)`` / ``x.sleep(...)`` call."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and "sleep" == (
                      node.func.attr if isinstance(node.func, ast.Attribute)
                      else getattr(node.func, "id", "")))


def test_nothing_on_the_request_path_polls():
    """The three poll loops are gone, not kept beside the wake-up."""
    assert not hasattr(service_module, "POLL_INTERVAL")
    assert not hasattr(JobStore, "wait_for_change")
    assert "_changed" not in vars(JobStore())
    for module in (service_module, jobs_module):
        assert _sleep_calls(Path(module.__file__).read_text()) == [], \
            f"{module.__name__} sleeps: park on the job's wake-up instead"
    # the walk must see what it guards against, or it would be vacuous
    assert _sleep_calls("import time\nasync def f():\n"
                        "    await asyncio.sleep(POLL)\n"
                        "    time.sleep(1)\n    sleep(2)\n") == [3, 4, 5]
