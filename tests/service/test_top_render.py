"""hiss top rendering against a fixed, checked-in ops document.

``render_ops`` is a pure function, so a canned ``/v1/ops`` document plus
a golden frame pin the whole console layout — any formatting drift shows
up as a readable text diff, with no server or terminal in the loop.
"""

import json
import pathlib

from repro.service.top import render_ops

DATA = pathlib.Path(__file__).parent / "data"


def _fixture():
    return json.loads((DATA / "ops_fixture.json").read_text())


class TestTopGoldenFrame:
    def test_frame_matches_checked_in_golden(self):
        golden = (DATA / "top_render.txt").read_text()
        assert render_ops(_fixture()) == golden

    def test_rendering_is_deterministic(self):
        doc = _fixture()
        assert render_ops(doc) == render_ops(doc)

    def test_alerts_pane_shows_firing_and_history(self):
        frame = render_ops(_fixture())
        assert "2 FIRING: e2e-p99, pool-warm-hits" in frame
        assert "firing    queue-wait-p95       burn 15.1x/14.6x" in frame
        assert "resolved  queue-wait-p95" in frame

    def test_alerts_pane_quiet_when_nothing_fires(self):
        doc = _fixture()
        doc["slo"]["firing"] = []
        doc["slo"]["history"] = []
        frame = render_ops(doc)
        assert "all objectives met" in frame
        assert "FIRING" not in frame

    def test_slo_pane_absent_when_disabled(self):
        doc = _fixture()
        doc["slo"] = {"enabled": False}
        frame = render_ops(doc)
        assert "slo " not in frame
        assert "objective(s)" not in frame
        # Everything else still renders.
        assert "hiss top" in frame and "latency" in frame

    def test_history_pane_caps_at_three_rows(self):
        doc = _fixture()
        doc["slo"]["history"] = [
            {"state": "firing", "slo": f"slo-{i}", "burn_fast": 20.0,
             "burn_slow": 15.0, "detail": "d"}
            for i in range(6)
        ]
        frame = render_ops(doc)
        assert "slo-5" in frame and "slo-3" in frame
        assert "slo-2" not in frame


class TestLiveLoop:
    def test_redraws_each_poll_until_interrupted(self, monkeypatch, capsys):
        """The live loop homes the cursor, clears and draws one frame per
        poll; Ctrl-C ends it with exit 0."""
        from repro.service import top
        from repro.service.client import ServiceClient

        polls = []

        def ops(client):
            if len(polls) == 2:
                raise KeyboardInterrupt
            polls.append(client)
            return _fixture()

        monkeypatch.setattr(ServiceClient, "ops", ops)
        assert top.main(["--url", "http://127.0.0.1:1", "--interval", "0"]) == 0
        frame = render_ops(_fixture())
        assert capsys.readouterr().out == ("\x1b[H\x1b[2J" + frame) * 2
