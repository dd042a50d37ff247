"""The five workloads: what each sets up, and one measured cycle of each.

Every workload is a closed loop with one client, driven from this process.
The program only ever receives generated spec text: a template from
``workloads/`` with ``--seed`` written into every scenario.  A *cycle* is the
workload's unit of measurement — its cold operation(s) against empty caches
followed by its warm operations against the caches the cold ones filled.

Why these five (one sentence each, repeated in ``BENCHMARK.json``):

* ``plan-bsor-8x8`` — route selection (the paper's contribution) is ~90% of
  both the cold and the warm pass, so a planner or plan-cache change shows
  here and nowhere else.
* ``sweep-sim-8x8`` — 48 independent 8x8 points make the simulator kernel
  ~95% of the cold pass and leave the warm pass to fingerprint + cache +
  result assembly.
* ``saturate-faults-4x4`` — the same kernel driven as small data-dependent
  rounds with mid-run faults, so a change that wins on wide sweeps but
  costs single points shows.
* ``serve-closed-loop`` — cheap studies through a real ``repro serve``
  process, so the HTTP front door and the warm cache path are the latency.
* ``queue-2w`` — ``sweep-sim-8x8``'s exact spec through the file work
  queue and two worker processes: queue overhead and 2-core scaling.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from gate import Ledger
from spans import Recorder, Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Environment variables that would redirect a cache or queue somewhere the
#: benchmark did not create; scrubbed here and from every child.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_SHARED_CACHE_DIR",
                "REPRO_QUEUE_DIR", "REPRO_WORKERS")

WORKLOADS = ("plan-bsor-8x8", "sweep-sim-8x8", "saturate-faults-4x4",
             "serve-closed-loop", "queue-2w")

STARTUP_TIMEOUT = 60.0


def scrub_environment() -> None:
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)


def child_environment() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in SCRUBBED_ENV}
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{existing}" if existing \
        else str(SRC)
    return env


def load_spec(name: str, scale: str, seed: int) -> Dict:
    """The workload's template with *seed* written into every scenario."""
    path = HERE / "workloads" / f"{name}.json"
    if scale == "smoke":
        smoke = HERE / "workloads" / "smoke" / f"{name}.json"
        path = smoke if smoke.exists() else path
    spec = json.loads(path.read_text())
    for scenario in spec["scenarios"]:
        scenario["seed"] = seed
    return spec


def span(recorder: Optional[Recorder], name: str, layer: str = "harness",
         **args):
    """A recorder span, or nothing at all when tracing is off."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, layer, **args)


def cache_totals(directory: str) -> Dict[str, int]:
    """Points, simulated cycles and delivered flits a cache directory holds.

    One entry is one simulated point with its full statistics, so the
    entries a cold pass leaves behind are an exact account of what it
    simulated — for the local pool, the queue workers and the server alike.
    """
    totals = {"points": 0, "cycles": 0, "flits": 0}
    for path in Path(directory).glob("*.json"):
        if path.name.startswith("."):
            continue
        statistics = json.loads(path.read_text())["statistics"]
        totals["points"] += 1
        totals["cycles"] += statistics["cycles"]
        totals["flits"] += statistics["flits_delivered"]
    return totals


def wait_for_line(path: Path, marker: str, process: subprocess.Popen,
                  what: str) -> str:
    """Block until *marker* shows up in the file a child writes to."""
    deadline = time.monotonic() + STARTUP_TIMEOUT
    while time.monotonic() < deadline:
        for line in path.read_text().splitlines():
            if marker in line:
                return line
        if process.poll() is not None:
            raise RuntimeError(f"{what} exited with {process.returncode} "
                               f"before announcing itself")
        time.sleep(0.005)
    raise RuntimeError(f"{what} did not announce itself within "
                       f"{STARTUP_TIMEOUT}s")


def stop_process(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


class WorkArea:
    """Fresh directories under one root in the checkout; removed on exit."""

    def __init__(self, base: Path) -> None:
        base.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=base))

    def fresh(self, label: str) -> str:
        return tempfile.mkdtemp(prefix=f"{label}-", dir=self.root)

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def start_server(area: WorkArea):
    """A real ``python -m repro serve`` on an ephemeral port.

    Returns ``(process, base_url, cache_dir, seconds_to_ready)``.
    """
    cache_dir = area.fresh("serve-cache")
    announce = Path(area.fresh("serve-out")) / "stdout"
    started = time.perf_counter()
    with open(announce, "w") as stdout:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--cache-dir", cache_dir,
             "--progress", "quiet"],
            stdout=stdout, stderr=subprocess.DEVNULL,
            env=child_environment(), cwd=area.root)
    try:
        line = wait_for_line(announce, "serving on ", process, "repro serve")
    except BaseException:
        stop_process(process)
        raise
    return (process, line.split("serving on ", 1)[1].strip(), cache_dir,
            time.perf_counter() - started)


def start_workers(area: WorkArea, queue_dir: str, count: int):
    """*count* ``python -m repro worker --no-cache`` processes on *queue_dir*.

    Returns ``(processes, seconds_until_all_ready)``.
    """
    log_dir = Path(area.fresh("worker-log"))
    started = time.perf_counter()
    processes = []
    try:
        for index in range(count):
            with open(log_dir / f"{index}.log", "w") as log:
                processes.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker",
                     "--queue-dir", queue_dir, "--no-cache"],
                    stdout=subprocess.DEVNULL, stderr=log,
                    env=child_environment(), cwd=area.root))
        for index, process in enumerate(processes):
            wait_for_line(log_dir / f"{index}.log", "draining", process,
                          "repro worker")
    except BaseException:
        for process in processes:
            stop_process(process)
        raise
    return processes, time.perf_counter() - started


# ----------------------------------------------------------------------
# cycles
# ----------------------------------------------------------------------
@dataclass
class Cycle:
    """What one measured cycle of a workload produced."""

    cold_s: List[float] = field(default_factory=list)
    warm_s: List[float] = field(default_factory=list)
    #: wall time of a served warm phase (its requests back to back)
    warm_phase_s: float = 0.0
    #: the verified cold result document(s), concatenated
    document: str = ""
    #: result rows of the cold document(s)
    rows: List[Dict] = field(default_factory=list)
    #: points / cycles / flits the cold phase simulated
    simulated: Dict[str, int] = field(default_factory=dict)
    #: cache hits / misses, batch groups, progress events over the cycle
    counts: Dict[str, float] = field(default_factory=dict)
    cold_roots: List[Span] = field(default_factory=list)
    warm_roots: List[Span] = field(default_factory=list)


class StudyCase:
    """A workload that is one ``run_study`` call per pass."""

    def __init__(self, name: str, spec: Dict, warm_passes: int,
                 area: WorkArea, ledger: Ledger) -> None:
        self.name = name
        self.text = json.dumps(spec, indent=2)
        self.warm_passes = warm_passes
        self.area = area
        self.ledger = ledger
        self.options: Dict = {}

    def setup(self) -> None:
        pass

    def teardown(self) -> None:
        pass

    def _pass(self, kind: str, cache_dir: str,
              recorder: Optional[Recorder], observer=None):
        from repro.study.execute import run_study
        from repro.study.spec import Study

        started = time.perf_counter()
        with span(recorder, "pass", kind=kind) as root:
            with span(recorder, "study.parse", "study"):
                study = Study.from_dict(json.loads(self.text))
            with span(recorder, "study.execute", "study"):
                result = run_study(study, cache_dir=cache_dir,
                                   observer=observer, **self.options)
            with span(recorder, "study.assemble", "study"):
                document = result.to_json()
        return time.perf_counter() - started, document, result, root

    def cycle(self, recorder: Optional[Recorder] = None) -> Cycle:
        """One cold pass on an empty cache, then the warm passes on it.

        A traced cold pass also carries a progress observer, so that the
        events the engine emits are counted where tracing is already on.
        """
        from repro.progress import CollectingObserver

        cycle = Cycle()
        cache_dir = self.area.fresh("cache")
        observer = CollectingObserver() if recorder is not None else None
        elapsed, cold_document, result, root = self._pass(
            "cold", cache_dir, recorder, observer)
        self.ledger.attempted += 1
        cycle.cold_s.append(elapsed)
        cycle.cold_roots.append(root)
        cycle.document = cold_document
        cycle.rows = list(result.results.rows)
        cycle.simulated = cache_totals(cache_dir)
        cycle.counts = {
            "hits": result.report.cache_hits,
            "misses": result.report.points_simulated,
            "batch_groups": result.report.batch_groups,
            "events": len(observer.events) if observer else 0,
        }
        for _ in range(self.warm_passes):
            elapsed, document, result, root = self._pass(
                "warm", cache_dir, recorder)
            cycle.warm_s.append(elapsed)
            cycle.warm_roots.append(root)
            cycle.counts["hits"] += result.report.cache_hits
            cycle.counts["misses"] += result.report.points_simulated
            self.ledger.check(document == cold_document,
                              f"{self.name}: warm document differs from "
                              f"the cold one")
            self.ledger.check(result.report.points_simulated == 0,
                              f"{self.name}: warm pass simulated "
                              f"{result.report.points_simulated} point(s)")
        self._check_twin(cache_dir, cold_document)
        return cycle

    def _check_twin(self, cache_dir: str, cold_document: str) -> None:
        pass


class QueueCase(StudyCase):
    """``sweep-sim-8x8``'s spec through the queue backend and two workers."""

    WORKERS = 2

    def setup(self) -> None:
        self.queue_dir = self.area.fresh("queue")
        self.processes, _ = start_workers(self.area, self.queue_dir,
                                          self.WORKERS)
        self.options = {"execution": "queue", "queue_dir": self.queue_dir,
                        "workers": self.WORKERS}

    def teardown(self) -> None:
        for process in getattr(self, "processes", []):
            stop_process(process)

    def _check_twin(self, cache_dir: str, cold_document: str) -> None:
        """The local backend must read the queue's results back verbatim."""
        from repro.study.execute import run_study
        from repro.study.spec import Study

        result = run_study(Study.from_dict(json.loads(self.text)),
                           cache_dir=cache_dir)
        self.ledger.check(
            result.to_json() == cold_document and
            result.report.points_simulated == 0,
            f"{self.name}: local re-read of the queue's results differs")


class ServeCase:
    """Submit -> wait -> fetch against a real server, one client."""

    def __init__(self, name: str, spec: Dict, seed: int, cold_submits: int,
                 warm_submits: int, area: WorkArea, ledger: Ledger) -> None:
        self.name = name
        self.spec = spec
        self.seed = seed
        self.cold_submits = cold_submits
        self.warm_submits = warm_submits
        self.area = area
        self.ledger = ledger
        self.cycles_run = 0

    def setup(self) -> None:
        from repro.serve.client import ServeClient

        self.process, url, self.cache_dir, self.startup_s = \
            start_server(self.area)
        self.client = ServeClient(url, timeout=60.0)

    def teardown(self) -> None:
        process = getattr(self, "process", None)
        if process is None:
            return
        try:
            if process.poll() is None:
                self.client.shutdown()
                process.wait(timeout=10)
        except Exception:
            pass  # the finally-path below is what guarantees the exit
        finally:
            stop_process(process)

    def variant(self, index: int) -> str:
        """Spec text of variant *index*: distinct rates, hence a distinct
        cache key.  (The scenario ``seed`` alone would not do: it reaches
        the routers, never the injection RNG, so dor studies that differ
        only in seed share their cache entries.)"""
        jitter = random.Random(self.seed).randrange(100) / 10000.0
        spec = json.loads(json.dumps(self.spec))
        spec["name"] = f"{self.name}-{index}"
        for scenario in spec["scenarios"]:
            scenario["rates"] = [round(rate + index / 100.0 + jitter, 4)
                                 for rate in scenario["rates"]]
        return json.dumps(spec, indent=2)

    def request(self, text: str, kind: str,
                recorder: Optional[Recorder]):
        started = time.perf_counter()
        with span(recorder, "serve.request", kind=kind) as root:
            with span(recorder, "serve.submit", "serve"):
                job = self.client.submit(text)
            with span(recorder, "serve.wait", "serve"):
                state = self.client.wait(job, poll_interval=0.002)
            with span(recorder, "serve.fetch", "serve"):
                body = self.client.result_text(job)
        self.ledger.attempted += 1
        return time.perf_counter() - started, body, state, root

    def cycle(self, recorder: Optional[Recorder] = None,
              seconds: Optional[float] = None) -> Cycle:
        """Cold submits of fresh variants, then warm resubmits of them.

        With *seconds* the warm phase keeps going until that much time has
        passed since the cycle began (never fewer than ``warm_submits``).
        """
        from repro.study.execute import run_study
        from repro.study.spec import Study

        cycle = Cycle()
        began = time.perf_counter()
        first = self.cycles_run * self.cold_submits
        self.cycles_run += 1
        texts = [self.variant(first + index)
                 for index in range(self.cold_submits)]
        before = cache_totals(self.cache_dir)
        bodies = []
        events = 0
        for text in texts:
            elapsed, body, state, root = self.request(text, "cold", recorder)
            cycle.cold_s.append(elapsed)
            cycle.cold_roots.append(root)
            bodies.append(body)
            events += state.get("events", 0)
        after = cache_totals(self.cache_dir)
        cycle.simulated = {key: after[key] - before[key] for key in after}
        cycle.counts = {"hits": 0, "misses": cycle.simulated["points"],
                        "batch_groups": 0, "events": events}

        warm_started = time.perf_counter()
        index = 0
        while index < self.warm_submits or (
                seconds is not None and
                time.perf_counter() - began < seconds):
            which = index % len(texts)
            elapsed, body, state, root = self.request(texts[which], "warm",
                                                      recorder)
            cycle.warm_s.append(elapsed)
            cycle.warm_roots.append(root)
            counts = state.get("event_counts", {})
            cycle.counts["hits"] += counts.get("cache_hit", 0)
            cycle.counts["misses"] += counts.get("point_finished", 0)
            self.ledger.check(body == bodies[which],
                              f"{self.name}: warm response {index} differs "
                              f"from the cold one")
            index += 1
        cycle.warm_phase_s = time.perf_counter() - warm_started
        self.ledger.check(
            cycle.counts["misses"] == cycle.simulated["points"],
            f"{self.name}: a warm resubmit simulated")

        # the twin: the same spec through in-process run_study, uncached
        for text, body in zip(texts, bodies):
            twin = run_study(Study.from_dict(json.loads(text)), cache=False)
            self.ledger.check(twin.to_json() == body,
                              f"{self.name}: served document differs from "
                              f"in-process run_study")
        cycle.document = "\n".join(bodies)
        cycle.rows = [row for body in bodies
                      for row in json.loads(body)["rows"]]
        return cycle


#: Warm passes per cycle at full scale (smoke runs one).  A warm pass of
#: the two sweep workloads takes ~45 ms, so forty of them spread the samples
#: over more than one of the host's slow phases.
WARM_PASSES = {"plan-bsor-8x8": 1, "sweep-sim-8x8": 40,
               "saturate-faults-4x4": 4, "queue-2w": 40}


def spec_name(workload: str) -> str:
    """The template a workload runs: ``queue-2w`` runs ``sweep-sim-8x8``'s
    exact spec, so the two also share one reference document."""
    return "sweep-sim-8x8" if workload == "queue-2w" else workload


def build_case(name: str, scale: str, seed: int, area: WorkArea,
               ledger: Ledger):
    """The workload object for *name* (its set-up has not run yet)."""
    smoke = scale == "smoke"
    if name == "serve-closed-loop":
        return ServeCase(name, load_spec(name, scale, seed), seed,
                         cold_submits=3 if smoke else 20,
                         warm_submits=9 if smoke else 200,
                         area=area, ledger=ledger)
    case_type = QueueCase if name == "queue-2w" else StudyCase
    return case_type(name, load_spec(spec_name(name), scale, seed),
                     1 if smoke else WARM_PASSES[name], area, ledger)


def warm_up(area: WorkArea) -> None:
    """Lazy set-up every study pays once per process, before any timing:
    scipy/HiGHS, networkx and numpy initialisation and each router's first
    call, on one tiny uncached 4x4 study."""
    from repro.study.execute import run_study
    from repro.study.spec import Study

    run_study(Study.from_dict({
        "name": "warm-up", "profile": "quick", "workers": 1,
        "scenarios": [{"name": "warm-up", "topologies": ["mesh4x4"],
                       "patterns": ["transpose"],
                       "routers": ["dor", "o1turn", "bsor-dijkstra",
                                   "bsor-milp"],
                       "rates": [0.5]}],
    }), cache=False)
