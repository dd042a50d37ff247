#!/usr/bin/env python3
"""End-to-end smoke test of the serving plane (``make serve-smoke``).

Starts ``python -m repro serve`` as a real subprocess on an ephemeral port,
drives it with the stdlib client the way a deployment would:

1. submit ``examples/studies/smoke.yaml`` cold, wait for it — which must
   take exactly one job-state request however long the cold run simulates
   (waiting is a parked ``?wait=`` request, never a poll loop) — and fetch
   the result;
2. resubmit the same spec and require the warm run to complete entirely
   from the result cache (one ``cache_hit`` event per point, zero
   ``point_started``) with a byte-identical result document;
3. POST ``/shutdown`` and require a clean exit.

Exit code 0 means the whole submit -> wait -> stream -> fetch -> shutdown
loop works against a real server process.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient  # noqa: E402

SMOKE_SPEC = REPO_ROOT / "examples" / "studies" / "smoke.yaml"
STARTUP_TIMEOUT = 30.0


class CountingClient(ServeClient):
    """Counts the job-state requests ``wait()`` is built from."""

    state_requests = 0

    def job_state(self, job_id, wait=None):
        self.state_requests += 1
        return super().job_state(job_id, wait)


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def start_server(cache_dir: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", cache_dir, "--workers", "1", "--progress", "quiet"],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )


def read_base_url(server: subprocess.Popen) -> str:
    # the serve command prints exactly one parseable announcement line
    line = server.stdout.readline().strip()
    prefix = "serving on "
    if not line.startswith(prefix):
        fail(f"expected a 'serving on' announcement, got {line!r}")
    return line[len(prefix):]


def check_counts(state: dict, *, cached: bool) -> None:
    counts = state.get("event_counts", {})
    if cached:
        if counts.get("cache_hit") != 2 or counts.get("point_started", 0):
            fail(f"warm run did not complete from the cache: {counts}")
    elif counts.get("point_finished") != 2:
        fail(f"cold run did not simulate both points: {counts}")


def main() -> int:
    spec_text = SMOKE_SPEC.read_text()
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as cache_dir:
        server = start_server(cache_dir)
        try:
            client = CountingClient(read_base_url(server), timeout=30.0)
            if client.health() != {"status": "ok"}:
                fail("health probe failed")

            cold_id = client.submit(spec_text)
            check_counts(client.wait(cold_id, timeout=300), cached=False)
            if client.state_requests != 1:
                fail(f"waiting for the cold job took "
                     f"{client.state_requests} job-state requests, not 1: "
                     f"the client is polling again")
            cold_text = client.result_text(cold_id)
            rows = json.loads(cold_text)["rows"]
            if len(rows) != 2:
                fail(f"expected 2 result rows, got {len(rows)}")

            warm_id = client.submit(spec_text)
            check_counts(client.wait(warm_id, timeout=300), cached=True)
            if client.result_text(warm_id) != cold_text:
                fail("warm result is not byte-identical to the cold run")

            events = [event.kind for event in client.events(warm_id)]
            if events.count("cache_hit") != 2:
                fail(f"event stream missing cache hits: {events}")

            client.shutdown()
            code = server.wait(timeout=STARTUP_TIMEOUT)
            if code != 0:
                fail(f"server exited with code {code}")
        finally:
            if server.poll() is None:
                server.terminate()
                server.wait(timeout=10)
    print("serve-smoke: ok (cold simulate behind one parked wait, warm "
          "cache-only, clean shutdown)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
