"""In-memory spans and the outside-in instrumentation of ``repro``'s layers.

The benchmark may not change the program, so it records spans from its own
side of each layer boundary: :func:`instrument` temporarily rebinds the
public functions in :data:`TARGETS` to wrappers that open a span around the
call, and the harness opens spans by hand around its own calls into the
program (``Study.from_dict``, ``run_study``, ``ServeClient.submit`` ...).
Spans only ever live in a :class:`Recorder`'s list; they are written out as
Chrome-trace JSON when the run ends.

A layer is a ``repro`` module name.  A span's *self time* is its duration
minus the part its direct children cover, so summing self times per layer
over one pass accounts for the pass's wall time exactly once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: (module, attribute path, span name, layer).  An attribute path of
#: ``Class.method`` patches the class; a bare name is a module-level
#: function and is rebound in every ``repro`` module that imported it.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.study.execute", "resolve_config", "study.resolve_config", "study"),
    ("repro.study.resultset", "ResultSet.__init__", "study.resultset",
     "study"),
    ("repro.compare.matrix", "parse_topology", "topology.build", "topology"),
    ("repro.compare.matrix", "pattern_flow_set", "traffic.flowset", "traffic"),
    ("repro.routing.bsor.framework", "CDGStrategy.build", "cdg.build", "cdg"),
    ("repro.flowgraph.flowgraph", "FlowGraph.__init__", "flowgraph.init",
     "flowgraph"),
    ("repro.flowgraph.flowgraph", "FlowGraph.add_flow_terminals",
     "flowgraph.terminals", "flowgraph"),
    ("repro.routing.bsor.milp", "MILPSelector.select_routes",
     "routing.milp.select", "routing"),
    ("repro.routing.bsor.milp", "milp", "routing.milp.solve", "routing"),
    ("repro.routing.bsor.dijkstra", "DijkstraSelector.select_routes",
     "routing.dijkstra.select", "routing"),
    ("repro.faults", "route_with_faults", "faults.reroute", "faults"),
    ("repro.runner.fingerprint", "simulation_cache_key",
     "fingerprint.cache_key", "fingerprint"),
    ("repro.runner.fingerprint", "batch_group_key", "fingerprint.group_key",
     "fingerprint"),
    ("repro.runner.cache", "ResultCache.get", "cache.get", "cache"),
    ("repro.runner.cache", "ResultCache.put", "cache.put", "cache"),
    ("repro.runner.cache", "ResultCache.record_run", "cache.record_run",
     "cache"),
    ("repro.runner.engine", "ExperimentRunner.sweep_many",
     "engine.sweep_many", "engine"),
    ("repro.runner.backends", "run_task", "sim.run_task", "simulator"),
    ("repro.runner.backends", "QueueExecutionBackend.run_tasks",
     "queue.run_tasks", "workqueue"),
    ("repro.runner.workqueue", "WorkQueue.submit", "queue.submit",
     "workqueue"),
    ("repro.runner.workqueue", "WorkQueue.reclaim_stale", "queue.reclaim",
     "workqueue"),
    ("repro.compare.matrix", "CompareMatrix.run", "compare.matrix",
     "compare"),
    ("repro.report", "render_report", "report.render", "report"),
    ("repro.report", "occupancy_heatmap", "report.heatmap", "report"),
)

#: The layers, in pipeline order; every span belongs to one of them or to
#: ``harness`` (the benchmark's own root spans).
LAYERS = ("study", "topology", "traffic", "cdg", "flowgraph", "routing",
          "faults", "fingerprint", "cache", "engine", "simulator", "compare",
          "workqueue", "serve", "report")


class Span:
    """One timed interval: name, layer, start, end and the causing span."""

    __slots__ = ("index", "name", "layer", "start", "end", "parent",
                 "thread", "args")

    def __init__(self, index: int, name: str, layer: str, start: float,
                 parent: Optional[int], thread: int) -> None:
        self.index = index
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.args: Dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects the spans of one workload run, in memory."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "harness",
             **args) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), name, layer, time.perf_counter(),
                        stack[-1] if stack else None, threading.get_ident())
            self.spans.append(span)
        span.args.update(args)
        stack.append(span.index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, function: Callable, name: str, layer: str) -> Callable:
        """*function* with a span around every call.

        A numeric or boolean return value is kept on the span (``result``),
        which is how counts such as reclaimed leases reach the metrics.
        """
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name, layer) as span:
                result = function(*args, **kwargs)
                if isinstance(result, (bool, int, float)):
                    span.args["result"] = result
                return result
        return traced

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def children_of(self, root: Span) -> List[Span]:
        """Every span below *root* (any depth), in start order."""
        inside = {root.index}
        found = []
        for span in self.spans[root.index + 1:]:
            if span.start > root.end:
                break  # spans are in start order: nothing later is inside
            if span.parent in inside:
                inside.add(span.index)
                found.append(span)
        return found

    def self_times(self, root: Span) -> Dict[int, float]:
        """Self time of *root* and every span below it, by span index."""
        times = {root.index: root.duration}
        for span in self.children_of(root):
            times[span.index] = span.duration
            times[span.parent] -= span.duration
        return times

    def layer_self_times(self, root: Span) -> Dict[str, float]:
        """Self time under *root* summed per layer (``harness`` included)."""
        totals: Dict[str, float] = {}
        for index, seconds in self.self_times(root).items():
            layer = self.spans[index].layer
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    # ------------------------------------------------------------------
    def nesting_errors(self) -> List[str]:
        """Violations of the span tree's invariants (empty when sound)."""
        errors = []
        for span in self.spans:
            if span.end < span.start:
                errors.append(f"span {span.index} {span.name} ends before "
                              f"it starts")
            if span.parent is None:
                continue
            if not 0 <= span.parent < span.index:
                errors.append(f"span {span.index} {span.name} has invalid "
                              f"parent {span.parent}")
                continue
            parent = self.spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                errors.append(f"span {span.index} {span.name} is not inside "
                              f"its parent {parent.name}")
        return errors

    def chrome_trace(self) -> Dict:
        """The spans as Chrome-trace ``X`` events (microseconds)."""
        origin = self.spans[0].start if self.spans else 0.0
        threads = {}
        events = []
        for span in self.spans:
            tid = threads.setdefault(span.thread, len(threads))
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0, "tid": tid,
                "args": {"id": span.index, "parent": span.parent,
                         "workload": self.workload, **span.args},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as stream:
            json.dump(self.chrome_trace(), stream)


# ----------------------------------------------------------------------
# rebinding
# ----------------------------------------------------------------------
def _resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute) of one target."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, vars(owner)[name]


def _bindings(module_name: str, owner, name: str, raw) -> List[Tuple]:
    """Every (namespace, attribute) through which callers reach *raw*.

    A method is reached through its class alone.  A module-level function
    may have been copied into other ``repro`` modules by ``from x import
    f``; each copy is a separate binding and all of them must move.
    """
    if isinstance(owner, type):
        return [(owner, name)]
    found = []
    for other_name, module in list(sys.modules.items()):
        if module is None or not (other_name == "repro" or
                                  other_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is raw:
                found.append((module, attribute))
    return found


@contextlib.contextmanager
def rebound(replacements: Iterable[Tuple[str, str, Callable[[Callable],
                                                            Callable]]]
            ) -> Iterator[None]:
    """Rebind ``(module, path, make_wrapper)`` targets; restore on exit.

    ``make_wrapper`` receives the original function and returns its
    replacement.  A target that no longer exists raises ``AttributeError``
    or ``KeyError`` before anything is patched, so a refactor that moves an
    instrumentation point fails the benchmark loudly instead of silently
    measuring less.
    """
    resolved = [(_resolve(module_name, path), module_name, make)
                for module_name, path, make in replacements]
    undo: List[Tuple[object, str, object]] = []
    try:
        for (owner, name, raw), module_name, make in resolved:
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(make(raw.__func__))
            else:
                replacement = make(raw)
            for namespace, attribute in _bindings(module_name, owner, name,
                                                  raw):
                undo.append((namespace, attribute, raw))
                setattr(namespace, attribute, replacement)
        yield
    finally:
        for namespace, attribute, raw in reversed(undo):
            setattr(namespace, attribute, raw)


def _routing_targets() -> List[Tuple[str, str]]:
    """``compute_routes`` of every concrete routing algorithm class."""
    from repro.routing.base import RoutingAlgorithm

    found = []
    pending = list(RoutingAlgorithm.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "compute_routes" in vars(cls):
            found.append((cls.__module__,
                          f"{cls.__qualname__}.compute_routes"))
    return sorted(found)


def instrument(recorder: Recorder):
    """Context manager: spans around every :data:`TARGETS` entry and around
    each routing algorithm's ``compute_routes`` (span ``routing.plan``)."""
    replacements = [
        (module_name, path,
         functools.partial(recorder.wrap, name=name, layer=layer))
        for module_name, path, name, layer in TARGETS
    ]
    replacements.extend(
        (module_name, path,
         functools.partial(recorder.wrap, name="routing.plan",
                           layer="routing"))
        for module_name, path in _routing_targets()
    )
    return rebound(replacements)
