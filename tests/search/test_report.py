"""Tests for the frontier table and the self-contained HTML report."""

import json

from repro.search.report import (
    DATA_ELEMENT_ID,
    frontier_table,
    render_html,
)
from repro.telemetry.kit import write_page

DOCUMENT = {
    "schema": 1,
    "seed": 3,
    "budget": 8,
    "strategy": "evolve",
    "space_digest": "abc123def456",
    "objectives": ["cpu_perf", "gpu_perf", "ssr_latency_us", "cc6_residency"],
    "evaluations": 8,
    "rounds": 2,
    "frontier": [
        {
            "label": "coalesce_us=13 qos=off",
            "point": {"coalesce_us": 13, "qos": "off"},
            "vector": [0.95, 1.01, 51.7, 0.0],
        },
        {
            "label": "coalesce_us=0 qos=<th_5>",
            "point": {"coalesce_us": 0, "qos": "th_5"},
            "vector": [0.99, 0.43, 12.2, 0.1],
        },
    ],
}


class TestFrontierTable:
    def test_contains_labels_and_counts(self):
        table = frontier_table(DOCUMENT)
        assert "coalesce_us=13 qos=off" in table
        assert "cpu_perf (x)" in table
        assert "2 frontier point(s) from 8 evaluation(s) over 2 round(s)" in table

    def test_empty_frontier_renders(self):
        table = frontier_table({"frontier": [], "evaluations": 0, "rounds": 0})
        assert "0 frontier point(s)" in table


class TestHtmlReport:
    def test_self_contained_with_embedded_payload(self):
        html = render_html(DOCUMENT)
        assert html.startswith("<!DOCTYPE html>")
        assert f'id="{DATA_ELEMENT_ID}"' in html
        assert "<svg" in html and "</svg>" in html
        assert "http-equiv" not in html  # no external fetches at all
        assert "src=" not in html and "href=" not in html

    def test_labels_escaped(self):
        html = render_html(DOCUMENT)
        assert "qos=&lt;th_5&gt;" in html
        assert "qos=<th_5>" not in html.split("application/json")[0]

    def test_payload_round_trips(self):
        evaluations = [({"coalesce_us": 0, "qos": "off"}, [0.9, 1.0, 30.0, 0.0])]
        html = render_html(DOCUMENT, evaluations)
        payload_text = html.split(f'id="{DATA_ELEMENT_ID}">', 1)[1]
        payload_text = payload_text.split("</script>", 1)[0]
        payload = json.loads(payload_text.replace("<\\/", "</"))
        assert payload["document"]["seed"] == 3
        assert payload["evaluations"][0][0] == {"coalesce_us": 0, "qos": "off"}

    def test_frontier_polyline_present_with_two_points(self):
        html = render_html(DOCUMENT)
        assert "polyline" in html

    def test_write_html(self, tmp_path):
        path = str(tmp_path / "report.html")
        html = render_html(DOCUMENT)
        assert write_page(path, html) == len(html.encode("utf-8"))
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == html
        assert DATA_ELEMENT_ID in html
