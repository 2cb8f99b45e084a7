"""Tests for the Chrome-trace exporter, validator, and the text timelines
``hiss trace`` renders from an exported document."""

import json

import pytest

from repro.telemetry import (
    Tracer,
    chrome_trace_dict,
    validate_chrome_trace,
    write_chrome_trace,
)


@pytest.fixture
def small_tracer():
    tracer = Tracer()
    tracer.span("user", "segment", 0, 1000, 3000, args={"thread": "app-0"})
    tracer.span("cc6", "segment", 1, 0, 5000)
    tracer.instant("irq.deliver", "irq", 0, 1500, args={"irq": "iommu-ppr"})
    tracer.instant("ssr.submit", "ssr", "iommu", 100, args={"id": 1})
    tracer.counter_sample("qos.ssr_fraction", "qos", 2000, 0.25)
    tracer.metrics.counter("ipi.sent").inc(2)
    tracer.metrics.histogram("ssr.latency_ns").record(5000.0)
    return tracer


class TestChromeExport:
    def test_document_shape(self, small_tracer):
        doc = chrome_trace_dict(small_tracer, label="test")
        assert doc["displayTimeUnit"] == "ns"
        assert doc["otherData"]["dropped_events"] == 0
        assert doc["otherData"]["metrics"]["counters"] == {"ipi.sent": 2}
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "i", "C"} <= phases

    def test_timestamps_are_microseconds(self, small_tracer):
        doc = chrome_trace_dict(small_tracer)
        span = next(
            e for e in doc["traceEvents"] if e["ph"] == "X" and e["name"] == "user"
        )
        assert span["ts"] == pytest.approx(1.0)
        assert span["dur"] == pytest.approx(2.0)

    def test_core_tids_stable_named_tracks_offset(self, small_tracer):
        doc = chrome_trace_dict(small_tracer)
        names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[0] == "core 0"
        assert names[1] == "core 1"
        assert any(tid >= 1000 and name == "iommu" for tid, name in names.items())

    def test_validates_and_serializes(self, small_tracer, tmp_path):
        doc = chrome_trace_dict(small_tracer)
        assert validate_chrome_trace(doc) == []
        path = tmp_path / "out.json"
        write_chrome_trace(small_tracer, str(path))
        assert validate_chrome_trace(json.loads(path.read_text())) == []


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({"foo": 1}) != []

    def test_rejects_bad_event(self):
        doc = {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 1.0}]}
        errors = validate_chrome_trace(doc)
        assert any("dur" in e for e in errors)

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"ph": "?", "name": "x", "pid": 0, "tid": 0, "ts": 0}]}
        assert any("phase" in e for e in validate_chrome_trace(doc))

    def test_rejects_negative_ts(self):
        doc = {"traceEvents": [{"ph": "i", "name": "x", "pid": 0, "tid": 0, "ts": -5}]}
        assert any("ts" in e for e in validate_chrome_trace(doc))

    def test_error_cap(self):
        doc = {"traceEvents": [{"bad": True}] * 200}
        errors = validate_chrome_trace(doc)
        assert errors[-1].startswith("...")


class TestTextTimelines:
    """What ``hiss trace summary`` and ``timeline`` print for an export."""

    @staticmethod
    def _render(tracer, tmp_path, capsys, *argv):
        from repro.telemetry.cli import main as trace_main

        path = str(tmp_path / "trace.json")
        write_chrome_trace(tracer, path)
        assert trace_main([argv[0], path, *argv[1:]]) == 0
        return capsys.readouterr().out

    def test_summary_aggregates_span_time(self, small_tracer, tmp_path, capsys):
        text = self._render(small_tracer, tmp_path, capsys, "summary")
        assert "core 0" in text and "iommu" in text
        user = next(line for line in text.splitlines() if " user " in line)
        assert user.split()[-3:] == ["2.00", "1", "0"]  # 2 us in one span
        assert "cc6" in text

    def test_render_timeline_orders_events(self, small_tracer, tmp_path, capsys):
        text = self._render(small_tracer, tmp_path, capsys, "timeline", "--track", "core 0")
        lines = text.splitlines()
        assert lines[0].startswith("timeline for core 0")
        assert lines[1].strip().startswith("1.000us")  # the user span at 1us

    def test_render_timeline_limit(self, small_tracer, tmp_path, capsys):
        text = self._render(
            small_tracer, tmp_path, capsys, "timeline", "--track", "core 0", "--limit", "1"
        )
        assert len(text.splitlines()) == 2


class TestMetricsText:
    def _registry(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("service.jobs.completed").inc(3)
        registry.histogram("service.job.e2e_s").record(1.5)
        return registry

    def test_families_announced_with_help_and_type(self):
        from repro.telemetry.export import render_metrics_text

        text = render_metrics_text(
            self._registry(), gauges={"queue.depth": 2.0}
        )
        lines = text.splitlines()
        assert "# TYPE service.jobs.completed counter" in lines
        assert "# TYPE service.job.e2e_s histogram" in lines
        assert "# TYPE queue.depth gauge" in lines
        for line in lines:
            if line.startswith("# HELP"):
                assert len(line.split(" ", 3)) == 4  # name + help text

    def test_legacy_flat_sample_lines_preserved(self):
        from repro.telemetry.export import render_metrics_text

        text = render_metrics_text(
            self._registry(), gauges={"queue.depth": 2.0}
        )
        samples = [l for l in text.splitlines() if not l.startswith("#")]
        assert "service.jobs.completed 3" in samples
        assert "queue.depth 2" in samples
        assert any(l.startswith("service.job.e2e_s.count ") for l in samples)
        assert any(l.startswith("service.job.e2e_s.p99 ") for l in samples)
        # grep-style consumers see exactly one sample line per family
        # member, each "name value" shaped.
        for line in samples:
            name, value = line.split(" ")
            float(value)

    def test_content_type_constant_is_openmetrics(self):
        from repro.telemetry.export import METRICS_TEXT_CONTENT_TYPE

        assert METRICS_TEXT_CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"
