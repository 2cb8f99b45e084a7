"""Tests for the hiss trace CLI and the hiss experiments --trace flag."""

import json

import pytest

from repro.telemetry import Tracer, write_chrome_trace
from repro.telemetry.cli import main as trace_main


@pytest.fixture
def trace_file(tmp_path):
    tracer = Tracer()
    tracer.span("user", "segment", 0, 1000, 3000, args={"thread": "app-0"})
    tracer.span("kworker.service", "work", 1, 2000, 2600, args={"item": "ssr-1"})
    tracer.instant("ssr.submit", "ssr", "iommu", 100, args={"id": 1})
    tracer.counter_sample("qos.ssr_fraction", "qos", 500, 0.1)
    tracer.metrics.histogram("ssr.latency_ns").record(1500.0)
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, str(path))
    return str(path)


class TestValidateCommand:
    def test_valid_file(self, trace_file, capsys):
        assert trace_main(["validate", trace_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_reports_dropped_events(self, tmp_path, capsys):
        tracer = Tracer(capacity=1)
        tracer.instant("a", "t", 0, 0)
        tracer.instant("b", "t", 0, 1)
        path = str(tmp_path / "trace.json")
        write_chrome_trace(tracer, path)
        assert trace_main(["validate", path]) == 0
        assert "(3 events, 1 dropped)" in capsys.readouterr().out

    def test_invalid_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        assert trace_main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            trace_main(["validate", str(tmp_path / "nope.json")])

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit):
            trace_main(["validate", str(path)])


class TestSummaryCommand:
    def test_renders_tracks_and_histograms(self, trace_file, capsys):
        assert trace_main(["summary", trace_file]) == 0
        out = capsys.readouterr().out
        assert "core 0" in out and "iommu" in out
        assert "ssr.latency_ns" in out  # histogram table


class TestTimelineCommand:
    def test_by_track_name(self, trace_file, capsys):
        assert trace_main(["timeline", trace_file, "--track", "core 0"]) == 0
        out = capsys.readouterr().out
        assert "user" in out

    def test_unknown_track(self, trace_file, capsys):
        assert trace_main(["timeline", trace_file, "--track", "nope"]) == 1
        assert "unknown track" in capsys.readouterr().err


class TestRunAllTraceFlag:
    def test_trace_flag_writes_valid_json(self, tmp_path, capsys):
        from repro.core.experiment import clear_cache
        from repro.experiments.run_all import main as experiments_main
        from repro.telemetry.export import validate_chrome_trace

        clear_cache()  # force real runs so the tracer sees events
        out = tmp_path / "fig4.json"
        code = experiments_main(
            ["fig4", "--quick", "--horizon-ms", "4", "--trace", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        spans = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        # The acceptance set: one span per paper-chain stage.
        assert {"user", "irq", "iommu.bottom_half", "kworker.service", "cc6"} <= spans
