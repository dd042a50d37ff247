"""Tests for the typed progress-event stream (:mod:`repro.progress`).

Covers the event types and their JSONL round-trip, the observer
implementations (collecting, jsonl, tty, null, and the ``make_observer``
mode policy), the :class:`ProgressEmitter`'s running completion model
(cache-hit ratio, deterministic ETA under an injected clock), and the
end-to-end wiring: a real :class:`ExperimentRunner` sweep must emit the
documented event sequence for cold, cached and batch-grouped points.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.exceptions import ReproError
from repro.progress import (
    PROGRESS_MODES,
    BatchGroupDispatched,
    CacheHit,
    CollectingObserver,
    JsonlObserver,
    NullObserver,
    PlanCached,
    PlanSolved,
    PointFinished,
    PointStarted,
    ProgressEmitter,
    SweepFinished,
    SweepStarted,
    TtyObserver,
    emitter_for,
    event_from_dict,
    make_observer,
)


class TestEvents:
    def test_to_dict_leads_with_kind(self):
        event = PointFinished(key="a", offered_rate=1.5, done=2, total=4)
        payload = event.to_dict()
        assert payload["event"] == "point_finished"
        assert payload["key"] == "a"
        assert payload["done"] == 2

    def test_json_roundtrip_every_kind(self):
        events = [
            PlanCached(router="bsor-milp", topology="mesh8x8",
                       pattern="transpose", faults="link:5-6"),
            PlanSolved(router="dor", topology="mesh4x4",
                       pattern="bit-complement", faults="none",
                       seconds=0.25, stored=True),
            SweepStarted(total_points=4, workers=2, label="fig"),
            PointStarted(key="k", offered_rate=0.5),
            CacheHit(key="k", offered_rate=0.5, done=1, total=4,
                     cache_hits=1, cache_hit_ratio=1.0),
            BatchGroupDispatched(group_key="g", size=3),
            PointFinished(key="k", offered_rate=0.5, done=2, total=4,
                          eta_seconds=1.25),
            SweepFinished(total=4, simulated=3, cache_hits=1,
                          batch_groups=1, elapsed_seconds=0.5),
        ]
        for event in events:
            line = event.to_json()
            rebuilt = event_from_dict(json.loads(line))
            assert rebuilt == event
            assert type(rebuilt) is type(event)

    def test_unknown_kind_raises_with_accepted_tags(self):
        with pytest.raises(ReproError, match="sweep_started"):
            event_from_dict({"event": "no_such_event"})

    def test_unknown_fields_are_dropped_not_fatal(self):
        # a newer producer may add fields; an older reader keeps working
        payload = PointStarted(key="k").to_dict()
        payload["future_field"] = 42
        assert event_from_dict(payload) == PointStarted(key="k")


class TestObservers:
    def test_collecting_observer_keeps_order(self):
        observer = CollectingObserver()
        observer.emit(SweepStarted(total_points=1))
        observer.emit(PointFinished(key="k"))
        assert observer.kinds() == ["sweep_started", "point_finished"]

    def test_jsonl_observer_writes_one_line_per_event(self):
        stream = io.StringIO()
        observer = JsonlObserver(stream)
        observer.emit(SweepStarted(total_points=2))
        observer.emit(PointFinished(key="k"))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["event"] == "sweep_started"
        assert json.loads(lines[1])["event"] == "point_finished"

    def test_jsonl_observer_swallows_dead_sink(self):
        class DeadStream(io.StringIO):
            def write(self, text):
                raise OSError("gone")

        JsonlObserver(DeadStream()).emit(PointFinished(key="k"))  # no raise

    def test_tty_observer_rewrites_in_place_and_erases(self):
        stream = io.StringIO()
        observer = TtyObserver(stream)
        observer.emit(PointFinished(key="k", done=1, total=4, cache_hits=1,
                                    cache_hit_ratio=1.0))
        text = stream.getvalue()
        assert text.startswith("\r\x1b[K")
        assert "1/4 points" in text
        observer.close()
        assert stream.getvalue().endswith("\r\x1b[K")
        # close is idempotent: a second close writes nothing more
        length = len(stream.getvalue())
        observer.close()
        assert len(stream.getvalue()) == length

    def test_tty_observer_ignores_non_progress_events(self):
        stream = io.StringIO()
        observer = TtyObserver(stream)
        observer.emit(PointStarted(key="k"))
        observer.emit(BatchGroupDispatched(group_key="g", size=2))
        observer.emit(PlanCached(router="dor", topology="mesh4x4"))
        observer.emit(PlanSolved(router="dor", topology="mesh4x4",
                                 seconds=1.0))
        assert stream.getvalue() == ""

    def test_make_observer_modes(self):
        assert isinstance(make_observer("quiet"), NullObserver)
        assert isinstance(make_observer("jsonl", io.StringIO()),
                          JsonlObserver)
        assert isinstance(make_observer("tty", io.StringIO()), TtyObserver)

    def test_make_observer_default_policy_follows_isatty(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        assert isinstance(make_observer(None, Tty()), TtyObserver)
        assert isinstance(make_observer(None, io.StringIO()), NullObserver)

    def test_make_observer_rejects_unknown_mode(self):
        with pytest.raises(ReproError, match="tty, jsonl, quiet"):
            make_observer("verbose")
        assert PROGRESS_MODES == ("tty", "jsonl", "quiet")


class TestEmitterModel:
    def test_cache_hit_vs_cold_counts(self):
        observer = CollectingObserver()
        emitter = ProgressEmitter(observer=observer, clock=lambda: 0.0)
        emitter.sweep_started(3, workers=1)
        emitter.cache_hit("a", 0.5)
        emitter.point_finished("b", 1.0)
        emitter.point_finished("c", 2.0)
        emitter.sweep_finished(3, 2, 1)
        hits = [event for event in observer.events
                if isinstance(event, CacheHit)]
        finished = [event for event in observer.events
                    if isinstance(event, PointFinished)]
        assert [event.cache_hits for event in hits] == [1]
        assert hits[0].cache_hit_ratio == 1.0
        assert [event.done for event in finished] == [2, 3]
        assert finished[-1].cache_hits == 1
        assert finished[-1].cache_hit_ratio == pytest.approx(1 / 3)

    def test_eta_extrapolates_simulated_rate(self):
        # deterministic clock: 2 seconds per simulated point (starting at
        # t=1 — a t=0 start reads as "never started" to the ETA guard)
        times = iter([1.0, 1.0, 3.0, 3.0, 5.0, 5.0, 5.0])
        emitter = ProgressEmitter(observer=CollectingObserver(),
                                  clock=lambda: next(times))
        emitter.sweep_started(4, workers=1)
        emitter.point_finished("a", 1.0)   # at t=3: 2s/point, 3 remain
        events = emitter.observer.events
        assert events[-1].eta_seconds == pytest.approx(6.0)
        emitter.point_finished("b", 2.0)   # at t=5: 2s/point, 2 remain
        assert emitter.observer.events[-1].eta_seconds == pytest.approx(4.0)

    def test_eta_is_none_before_any_simulated_point(self):
        emitter = ProgressEmitter(observer=CollectingObserver(),
                                  clock=lambda: 1.0)
        emitter.sweep_started(2, workers=1)
        emitter.cache_hit("a", 0.5)
        assert emitter.observer.events[-1].eta_seconds is None
        assert emitter.eta_seconds() is None

    def test_plan_events_are_stamped_and_leave_the_point_model_alone(self):
        observer = CollectingObserver()
        emitter = ProgressEmitter(observer=observer, clock=lambda: 7.0)
        emitter.plan_cached("dor", "mesh4x4", "transpose", "none")
        emitter.plan_solved("bsor-milp", "mesh4x4", "transpose", "link:5-6",
                            seconds=0.5, stored=False)
        assert observer.events == [
            PlanCached(timestamp=7.0, router="dor", topology="mesh4x4",
                       pattern="transpose", faults="none"),
            PlanSolved(timestamp=7.0, router="bsor-milp",
                       topology="mesh4x4", pattern="transpose",
                       faults="link:5-6", seconds=0.5, stored=False),
        ]
        assert (emitter.done, emitter.total, emitter.cache_hits) == (0, 0, 0)

    def test_emitter_for_skips_null_and_none(self):
        assert emitter_for(None) is None
        assert emitter_for(NullObserver()) is None
        assert emitter_for(CollectingObserver()) is not None


class TestRunnerWiring:
    """The engines emit the documented sequences through a real runner."""

    def _runner(self, tmp_path, observer, backend=None):
        from repro.experiments.config import ExperimentConfig
        from repro.runner.engine import ExperimentRunner

        config = ExperimentConfig.from_profile("quick")
        if backend:
            config = config.with_backend(backend)
        runner = ExperimentRunner(workers=1, cache=str(tmp_path / "cache"),
                                  observer=observer)
        return runner, config

    def _spec(self, config, rates):
        from repro.routing.registry import create_router
        from repro.runner.engine import SweepSpec
        from repro.topology import Mesh2D
        from repro.traffic import synthetic_by_name

        mesh = Mesh2D(4)
        flows = synthetic_by_name("transpose", mesh.num_nodes, demand=25.0)
        routes = create_router("dor").compute_routes(mesh, flows)
        return SweepSpec(mesh, routes, config.simulation, rates,
                         workload="transpose")

    def test_cold_sweep_event_sequence(self, tmp_path):
        observer = CollectingObserver()
        runner, config = self._runner(tmp_path, observer)
        runner.sweep_many({"s": self._spec(config, [0.5, 1.0])})
        assert observer.kinds() == [
            "sweep_started", "point_started", "point_started",
            "point_finished", "point_finished", "sweep_finished",
        ]
        finished = observer.events[-1]
        assert finished.total == 2
        assert finished.simulated == 2
        assert finished.cache_hits == 0

    def test_warm_rerun_emits_cache_hits(self, tmp_path):
        observer = CollectingObserver()
        runner, config = self._runner(tmp_path, observer)
        spec = self._spec(config, [0.5, 1.0])
        runner.sweep_many({"s": spec})
        observer.events.clear()
        runner.sweep_many({"s": spec})
        assert observer.kinds() == ["sweep_started", "cache_hit",
                                    "cache_hit", "sweep_finished"]
        assert observer.events[-1].cache_hits == 2
        assert observer.events[-1].simulated == 0

    def test_batch_backend_emits_group_events(self, tmp_path):
        pytest.importorskip("numpy")
        observer = CollectingObserver()
        runner, config = self._runner(tmp_path, observer, backend="batch")
        runner.sweep_many({"s": self._spec(config, [0.5, 1.0])})
        kinds = observer.kinds()
        assert kinds[0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        assert "batch_group_dispatched" in kinds
        assert kinds.count("point_finished") == 2
        group = next(event for event in observer.events
                     if isinstance(event, BatchGroupDispatched))
        assert group.size == 2
        assert observer.events[-1].batch_groups == 1

    def test_saturation_search_emits_through_observer(self):
        from repro.compare.saturation import (
            SaturationCriteria,
            find_saturation,
        )

        observer = CollectingObserver()

        def evaluate(rate):
            # saturates above rate 2: throughput stops tracking the offer
            throughput = min(rate, 2.0)
            return throughput, 10.0 + rate, throughput / rate

        find_saturation(evaluate,
                        SaturationCriteria(min_rate=0.5, max_rate=4.0,
                                           resolution=0.5),
                        observer=observer)
        kinds = observer.kinds()
        assert kinds[-1] == "sweep_finished"
        assert kinds.count("point_started") == kinds.count("point_finished")
        assert kinds.count("point_started") >= 3
        assert observer.events[-1].label == "saturation"

    def test_timestamps_are_monotonic(self, tmp_path):
        observer = CollectingObserver()
        runner, config = self._runner(tmp_path, observer)
        runner.sweep_many({"s": self._spec(config, [0.5])})
        stamps = [event.timestamp for event in observer.events]
        assert stamps == sorted(stamps)
        assert all(stamp > 0 for stamp in stamps)
