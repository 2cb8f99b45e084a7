"""Unit tests for the event tracers and the active-tracer plumbing."""

import pickle

import pytest

from repro.telemetry import (
    NULL_TRACER,
    NullTracer,
    RunTracer,
    TraceEvent,
    Tracer,
    get_active_tracer,
    set_active_tracer,
)


class TestTracer:
    def test_span_and_instant_recorded(self):
        tracer = Tracer()
        tracer.span("user", "segment", 0, 100, 250, args={"thread": "t"})
        tracer.instant("irq.deliver", "irq", 1, 300)
        events = list(tracer.events())
        assert len(events) == 2
        span, instant = events
        assert span.phase == "X" and span.dur_ns == 150 and span.track == 0
        assert instant.phase == "i" and instant.ts_ns == 300

    def test_counter_sample(self):
        tracer = Tracer()
        tracer.counter_sample("qos.fraction", "qos", 10, 0.5)
        (event,) = tracer.events()
        assert event.phase == "C" and event.args == {"value": 0.5}

    def test_span_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Tracer().span("x", "c", 0, 100, 50)
        full = RunTracer(capacity=1)
        full.instant("kept", "c", 0, 0)
        with pytest.raises(ValueError):  # even once a run tracer is full
            full.span("x", "c", 0, 100, 50)

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            tracer.instant(f"e{index}", "t", 0, index)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [e.name for e in tracer.events()] == ["e2", "e3", "e4"]

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_tracks_cores_first_then_named(self):
        tracer = Tracer()
        tracer.instant("a", "t", "iommu", 0)
        tracer.instant("b", "t", 2, 0)
        tracer.instant("c", "t", 0, 0)
        tracer.instant("d", "t", "gpu:ubench", 0)
        assert tracer.tracks() == [0, 2, "gpu:ubench", "iommu"]


class TestTraceEvent:
    def test_immutable_equal_fieldwise_and_picklable(self):
        event = TraceEvent("X", "user", "segment", 0, 100, 150, {"thread": "t"})
        with pytest.raises(AttributeError):
            event.name = "other"
        assert event == TraceEvent(
            phase="X", name="user", category="segment", track=0, ts_ns=100,
            dur_ns=150, args={"thread": "t"},
        )
        assert event != TraceEvent("X", "user", "segment", 1, 100, 150, {"thread": "t"})
        assert pickle.loads(pickle.dumps(event)) == event
        instant = TraceEvent("i", "irq", "irq", "iommu", 5)
        assert instant.dur_ns == 0.0 and instant.args is None


class TestRunTracer:
    def test_keeps_first_events_and_builds_nothing_past_capacity(self, monkeypatch):
        import repro.telemetry.tracer as tracer_module

        built = []

        def counting_event(*fields):
            built.append(fields)
            return TraceEvent(*fields)

        monkeypatch.setattr(tracer_module, "TraceEvent", counting_event)
        tracer = RunTracer(capacity=3)
        for index in range(5):
            tracer.instant(f"e{index}", "t", 0, index)
        tracer.span("s", "t", 0, 10, 20)
        tracer.counter_sample("c", "qos", 30, 1.0)
        tracer.metrics.counter("kept.anyway").inc()
        assert [e.name for e in tracer.events()] == ["e0", "e1", "e2"]
        assert len(tracer) == 3
        assert tracer.dropped == 4
        assert len(built) == 3
        assert tracer.metrics.counters["kept.anyway"].value == 1

    def test_merge_worker_trace_renames_tracks_per_run(self):
        from repro.core.planner import _merge_worker_trace

        worker = RunTracer(capacity=10)
        worker.span("user", "segment", 0, 100, 250, args={"thread": "t"})
        worker.instant("ppr", "iommu", "iommu", 300)
        worker.counter_sample("qos.fraction", "qos", 400, 0.5)
        merged = Tracer()
        _merge_worker_trace(merged, "x264xbfs@5ms", list(worker.events()))
        assert list(merged.events()) == [
            TraceEvent(
                "X", "user", "segment", "x264xbfs@5ms | core 0", 100, 150,
                {"thread": "t"},
            ),
            TraceEvent("i", "ppr", "iommu", "x264xbfs@5ms | iommu", 300, 0.0, None),
            TraceEvent(
                "C", "qos.fraction", "counter", "x264xbfs@5ms | qos", 400, 0.0,
                {"value": 0.5},
            ),
        ]


class TestNullTracer:
    def test_disabled_and_noop(self):
        null = NullTracer()
        assert null.enabled is False
        null.span("x", "c", 0, 0, 10)
        null.instant("y", "c", 0, 0)
        null.counter_sample("z", 0, 0, 1.0)
        assert len(null) == 0
        assert list(null.events()) == []
        assert null.tracks() == []
        assert null.dropped == 0  # it never stores, so it never drops


class TestActiveTracer:
    def test_default_is_null(self):
        assert get_active_tracer() is NULL_TRACER

    def test_set_and_reset(self):
        tracer = Tracer()
        set_active_tracer(tracer)
        try:
            assert get_active_tracer() is tracer
        finally:
            set_active_tracer(None)
        assert get_active_tracer() is NULL_TRACER
