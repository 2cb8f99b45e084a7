"""``hiss-slo postmortem`` CLI + HTML/text rendering determinism.

The acceptance bar: rendering the same bundle twice is byte-identical
(everything in the report is clocked by event timestamps inside the
bundle), `validate` exits 1 on a broken bundle, and `render`/`summary`
exit 2 rather than render garbage.
"""

import json
import socket

import pytest

from repro.obsd import FlightRecorder, PostmortemStore, default_triggers
from repro.obsd.cli import main as slo_main
from repro.obsd.report import postmortem_text, render_postmortem_html


def main(argv):
    return slo_main(["postmortem", *argv])


@pytest.fixture()
def bundle_path(tmp_path):
    store = PostmortemStore(str(tmp_path / "pm"), keep=5)
    recorder = FlightRecorder(store, triggers=default_triggers())
    for i in range(40):
        recorder.observe({"ts": 100.0 + i, "event": "job.started", "job": f"j{i}"})
    recorder.note_run(
        {"run": "bfs+MemcachedService", "worker_pid": 4242,
         "wall_start_s": 130.0, "wall_end_s": 139.5},
        [{"ts": i} for i in range(30)],
        {"samples": {"interval_ns": 1000, "columns": ["t"], "rows": [[1], [2]]}},
    )
    doc = recorder.trigger_manual("cli test", at_s=140.0)
    assert doc is not None
    return store.paths()[0]


class TestRenderDeterminism:
    def test_html_is_byte_identical_across_renders(self, bundle_path):
        doc = json.loads(open(bundle_path).read())
        assert render_postmortem_html(doc) == render_postmortem_html(doc)

    def test_text_summary_is_deterministic(self, bundle_path):
        doc = json.loads(open(bundle_path).read())
        text = postmortem_text(doc)
        assert text == postmortem_text(doc)
        assert doc["id"] in text
        assert "ring:" in text

    def test_html_embeds_the_raw_bundle(self, bundle_path):
        doc = json.loads(open(bundle_path).read())
        html = render_postmortem_html(doc)
        assert "hiss-postmortem-data" in html
        assert "<svg" in html
        assert doc["id"] in html

    def test_render_cli_twice_writes_identical_files(self, bundle_path, tmp_path):
        out1 = tmp_path / "a.html"
        out2 = tmp_path / "b.html"
        assert main(["render", str(bundle_path), "-o", str(out1)]) == 0
        assert main(["render", str(bundle_path), "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCliExitCodes:
    def test_validate_ok(self, bundle_path, capsys):
        assert main(["validate", str(bundle_path)]) == 0
        assert capsys.readouterr().out.startswith("OK:")

    def test_validate_broken_bundle_exits_1(self, bundle_path, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        doc = json.loads(open(bundle_path).read())
        doc["schema"] = "hiss.wrong/9"
        broken.write_text(json.dumps(doc))
        assert main(["validate", str(broken)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_render_refuses_invalid_input(self, bundle_path, tmp_path):
        broken = tmp_path / "broken.json"
        doc = json.loads(open(bundle_path).read())
        del doc["trigger"]
        broken.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as excinfo:
            main(["render", str(broken), "-o", str(tmp_path / "x.html")])
        assert excinfo.value.code == 2

    def test_summary_refuses_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["summary", str(tmp_path / "absent.json")])

    def test_list_directory(self, bundle_path, capsys):
        directory = str(bundle_path.rsplit("/", 1)[0])
        assert main(["list", directory]) == 0
        out = capsys.readouterr().out
        assert "pm-000000-manual" in out
        assert "bytes" in out

    def test_list_empty_directory(self, tmp_path, capsys):
        assert main(["list", str(tmp_path)]) == 0
        assert "no postmortem bundles" in capsys.readouterr().out

    def test_list_an_unreachable_daemon_is_one_error_line(self, capsys):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        probe.close()  # nothing listens there now
        assert main(["list", "--url", url]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"hiss-slo: error: {url}: ")
        assert err.count("\n") == 1 and "Connection refused" in err


class TestRecorderRing:
    def test_run_tails_land_in_the_ring(self, bundle_path):
        doc = json.loads(open(bundle_path).read())
        kinds = {entry["kind"] for entry in doc["flight_ring"]["entries"]}
        assert "sim.tail" in kinds
        assert "sampler.tail" in kinds
        tail = next(
            entry for entry in doc["flight_ring"]["entries"]
            if entry["kind"] == "sim.tail"
        )
        # Only the tail of the event stream rides along, with the total.
        assert tail["data"]["events_total"] == 30
        assert len(tail["data"]["events"]) == 16
