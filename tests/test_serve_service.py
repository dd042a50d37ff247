"""End-to-end tests of the study-serving service (:mod:`repro.serve`).

One in-thread service on an ephemeral port serves the whole module; the
tests drive it through the stdlib :class:`~repro.serve.client.ServeClient`
exactly as ``python -m repro submit`` does.  The acceptance assertions live
here: the served result document is byte-identical to ``python -m repro run
--format json``, and a warm resubmission completes entirely from the cache
(one ``cache_hit`` event per point, zero ``point_started``).
"""

from __future__ import annotations

import json
import socket
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.exceptions import ServeError, StudyError
from repro.progress import ProgressEvent
from repro.serve import (
    JobStore,
    ServeClient,
    StudyService,
    start_in_thread,
    study_from_text,
)
from repro.study import Study, run_study

EXAMPLES = Path(__file__).parent.parent / "examples" / "studies"
SMOKE_TEXT = (EXAMPLES / "smoke.yaml").read_text()


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
        from repro.serve.client import _json

        with pytest.raises(ServeError, match="HTTP 404"):
            _json(f"{served.client.base_url}/no-such-route")

    def test_unknown_job_is_404(self, served):
        with pytest.raises(ServeError, match="HTTP 404"):
            served.client.job_state("job-999")

    def test_malformed_spec_is_400(self, served):
        with pytest.raises(ServeError, match="HTTP 400"):
            served.client.submit("{not a spec")


class TestHostileRequests:
    """Malformed framing is a 400 like any other malformed head — never an
    exception out of the connection callback (which asyncio reports as
    "Unhandled exception in client_connected_cb" and answers with nothing).
    """

    @staticmethod
    def _exchange(served, request: bytes) -> bytes:
        """Send raw bytes, half-close, and read the whole reply."""
        url = urlsplit(served.client.base_url)
        with socket.create_connection((url.hostname, url.port),
                                      timeout=10) as connection:
            connection.sendall(request)
            connection.shutdown(socket.SHUT_WR)
            reply = b""
            while True:
                chunk = connection.recv(65536)
                if not chunk:
                    return reply
                reply += chunk

    def _assert_bad_request(self, served, caplog, request: bytes,
                            needle: str) -> None:
        reply = self._exchange(served, request)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request")
        assert needle in json.loads(body)["error"]
        # the service survived and nothing reached asyncio's last resort
        assert served.client.health() == {"status": "ok"}
        assert not [record for record in caplog.records
                    if record.name == "asyncio"]

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
        url = urlsplit(served.client.base_url)
        connection = socket.create_connection((url.hostname, url.port))
        connection.sendall(b"POST /studies HTTP/1.1\r\n"
                           b"Content-Length: 50\r\n\r\nname: x")
        connection.close()  # nobody left to read the 400
        assert served.client.health() == {"status": "ok"}
        assert not [record for record in caplog.records
                    if record.name == "asyncio"]


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
