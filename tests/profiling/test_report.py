"""Exporters: collapsed-stack flamegraph, HTML report, and the CLI."""

import json

import pytest

from repro.config import SystemConfig
from repro.core import System
from repro.profiling import (
    ProfileCollector,
    Profiler,
    collapsed_stacks,
    render_html,
    validate_profile,
    write_collapsed,
)
from repro.profiling.cli import main as report_main
from repro.profiling.report import aggregate_app_blame, aggregate_attribution, text_summary
from repro.telemetry.kit import write_page
from repro.workloads import gpu_app, parsec

HORIZON_NS = 2_000_000


@pytest.fixture(scope="module")
def document():
    """One profiled cpu x gpu run (module-scoped: simulation is the cost)."""
    profiler = Profiler()
    system = System(SystemConfig(), profiler=profiler)
    system.add_cpu_app(parsec("blackscholes"))
    system.add_gpu_workload(gpu_app("xsbench"))
    system.run(HORIZON_NS)
    return profiler.take_document()


@pytest.fixture(scope="module")
def bundle(document):
    collector = ProfileCollector()
    collector.add(document)
    return collector.bundle(meta={"source": "test"})


class TestFlamegraph:
    def test_collapsed_stack_format(self, document):
        lines = collapsed_stacks(document)
        assert lines
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            frames = stack.split(";")
            assert len(frames) == 3  # app;victim;channel:ssr
            assert ":" in frames[2]
            assert int(weight) > 0  # integer ns, zero-weight filtered

    def test_stacks_merged_and_sorted(self, document):
        lines = collapsed_stacks(document)
        stacks = [line.rpartition(" ")[0] for line in lines]
        assert stacks == sorted(stacks)
        assert len(stacks) == len(set(stacks))  # one line per stack

    def test_bundle_equivalent_to_run(self, document, bundle):
        assert collapsed_stacks(bundle) == collapsed_stacks(document)

    def test_write_collapsed(self, document, tmp_path):
        path = tmp_path / "profile.folded"
        count = write_collapsed(document, str(path))
        assert count == len(path.read_text().splitlines()) > 0


class TestAggregation:
    def test_attribution_rows_conserve_service_time(self, document):
        rows = aggregate_attribution(document)
        service = [r for r in rows if r["family"] == "service"]
        assert sum(r["ns"] for r in service) == document["ssr_time_ns"]
        assert sum(r["share"] for r in service) == pytest.approx(1.0)
        assert [r["ns"] for r in rows] == sorted(
            (r["ns"] for r in rows), reverse=True
        )

    def test_app_blame_covers_victims(self, document):
        rows = aggregate_app_blame(document)
        assert rows
        apps = {r["app"] for r in rows}
        assert "blackscholes" in apps or "gpu-host/xsbench" in apps

    def test_text_summary_mentions_channels(self, document):
        text = text_summary(document)
        assert "worker" in text
        assert "top_half" in text


class TestHtml:
    def test_report_is_self_contained(self, document):
        html = render_html(document)
        assert html.lower().startswith("<!doctype html>")
        assert "hiss-profile-data" in html  # embedded raw JSON island
        assert "Attribution" in html
        assert "<svg" in html  # timeline strip
        # Self-contained: no external scripts/styles (the lone http URL
        # is the inline SVG's xmlns declaration, not a fetch).
        assert "<script src" not in html
        assert "<link" not in html
        assert "https://" not in html

    def test_embedded_json_round_trips(self, bundle, tmp_path):
        path = tmp_path / "report.html"
        size = write_page(str(path), render_html(bundle))
        html = path.read_text()
        assert size == len(html.encode("utf-8"))
        marker = "id='hiss-profile-data'>"
        start = html.index(marker) + len(marker)
        end = html.index("</script>", start)
        embedded = json.loads(html[start:end].replace("<\\/", "</"))
        assert validate_profile(embedded) == []
        assert len(embedded["runs"]) == 1


class TestCli:
    def _write_bundle(self, bundle, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(bundle))
        return path

    def test_render(self, bundle, tmp_path, capsys):
        src = self._write_bundle(bundle, tmp_path)
        out = tmp_path / "report.html"
        folded = tmp_path / "profile.folded"
        rc = report_main(
            ["render", str(src), "-o", str(out), "--collapsed", str(folded)]
        )
        assert rc == 0
        assert out.stat().st_size > 0
        assert folded.stat().st_size > 0
        assert "report.html" in capsys.readouterr().out

    def test_validate_ok(self, bundle, tmp_path, capsys):
        src = self._write_bundle(bundle, tmp_path)
        assert report_main(["validate", str(src)]) == 0
        assert "conservation holds" in capsys.readouterr().out

    def test_validate_catches_broken_conservation(self, bundle, tmp_path, capsys):
        broken = json.loads(json.dumps(bundle))
        broken["runs"][0]["ssr_time_ns"] += 1
        src = tmp_path / "broken.json"
        src.write_text(json.dumps(broken))
        assert report_main(["validate", str(src)]) == 1
        assert "conservation" in capsys.readouterr().err

    def test_render_refuses_invalid_document(self, bundle, tmp_path):
        broken = json.loads(json.dumps(bundle))
        broken["schema"] = "not-a-profile"
        src = tmp_path / "broken.json"
        src.write_text(json.dumps(broken))
        with pytest.raises(SystemExit) as excinfo:
            report_main(["render", str(src), "-o", str(tmp_path / "x.html")])
        assert excinfo.value.code == 2

    def test_summary(self, bundle, tmp_path, capsys):
        src = self._write_bundle(bundle, tmp_path)
        assert report_main(["summary", str(src)]) == 0
        assert "worker" in capsys.readouterr().out
