"""hiss slo CLI: offline evaluation, validation, diffing, determinism."""

import json
import pathlib

import pytest

from repro.obsd.cli import main
from repro.obsd.slo import SLO_SCHEMA, SloSpec, slo_document

FIXTURE = pathlib.Path(__file__).parent / "data" / "ops_capture.jsonl"

TIGHT = SloSpec(name="e2e-tight", kind="latency", metric="e2e_s",
                percentile=99, threshold_s=0.3,
                fast_window_s=5, slow_window_s=10)
LOOSE = SloSpec(name="e2e-loose", kind="latency", metric="e2e_s",
                percentile=99, threshold_s=60.0,
                fast_window_s=5, slow_window_s=10)


def _spec_file(tmp_path, *specs, name="slos.json"):
    path = tmp_path / name
    path.write_text(json.dumps(slo_document(list(specs))))
    return str(path)


def _trace_file(tmp_path, job_id, queue_s, name):
    doc = {
        "job_id": job_id,
        "trace_id": f"trace-{job_id}",
        "state": "done",
        "spans": [
            {"span_id": "root", "name": "service.job",
             "start_s": 0.0, "end_s": 1.0 + queue_s},
            {"span_id": "submit", "name": "service.submit",
             "start_s": 0.0, "end_s": 0.01},
            {"span_id": "queue", "name": "service.queue",
             "start_s": 0.01, "end_s": 0.01 + queue_s},
            {"span_id": "batch", "name": "service.batch",
             "start_s": 0.01 + queue_s, "end_s": 0.99 + queue_s},
            {"span_id": "sim-0", "name": "sim.run-0",
             "start_s": 0.01 + queue_s, "end_s": 0.9 + queue_s},
            {"span_id": "render", "name": "service.render",
             "start_s": 0.99 + queue_s, "end_s": 1.0 + queue_s},
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestEvaluate:
    def test_json_report_lists_firing_rules(self, tmp_path, capsys):
        spec = _spec_file(tmp_path, TIGHT, LOOSE)
        rc = main(["evaluate", "--ops", str(FIXTURE), "--slo", spec, "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["firing"] == ["e2e-tight"]
        names = [row["name"] for row in report["evaluations"]]
        assert names == ["e2e-tight", "e2e-loose"]

    def test_text_report_marks_firing_rules(self, tmp_path, capsys):
        spec = _spec_file(tmp_path, TIGHT, LOOSE)
        main(["evaluate", "--ops", str(FIXTURE), "--slo", spec])
        out = capsys.readouterr().out
        assert "FIRING" in out
        assert "e2e-tight" in out

    def test_stdout_is_run_to_run_identical(self, tmp_path, capsys):
        spec = _spec_file(tmp_path, TIGHT)
        outputs = set()
        for _ in range(2):
            main(["evaluate", "--ops", str(FIXTURE), "--slo", spec, "--json"])
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def test_html_report_is_byte_deterministic(self, tmp_path, capsys):
        spec = _spec_file(tmp_path, TIGHT)
        blobs = []
        for name in ("a.html", "b.html"):
            out = tmp_path / name
            main(["evaluate", "--ops", str(FIXTURE), "--slo", spec,
                  "-o", str(out)])
            blobs.append(out.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]
        assert b"hiss-slo-data" in blobs[0]

    def test_fail_on_firing_exit_code(self, tmp_path, capsys):
        tight = _spec_file(tmp_path, TIGHT, name="tight.json")
        loose = _spec_file(tmp_path, LOOSE, name="loose.json")
        assert main(["evaluate", "--ops", str(FIXTURE), "--slo", tight,
                     "--fail-on-firing"]) == 3
        assert main(["evaluate", "--ops", str(FIXTURE), "--slo", loose,
                     "--fail-on-firing"]) == 0
        capsys.readouterr()

    def test_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            main(["evaluate"])
        with pytest.raises(SystemExit):
            main(["evaluate", "--ops", str(FIXTURE), "--url", "http://x"])

    def test_url_with_slo_is_a_usage_error_that_reads_no_file(self, tmp_path, capsys):
        """The daemon reports its own objectives, so a spec file given with
        ``--url`` would be silently ignored: refuse it before any file or
        daemon is touched (the file does not exist; the port is closed)."""
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--url", "http://127.0.0.1:1", "--slo", missing])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hiss slo evaluate")
        assert "--slo applies to --ops replays" in err
        assert "cannot read" not in err and "missing.json" not in err


class TestValidate:
    def test_good_spec_passes(self, tmp_path, capsys):
        spec = _spec_file(tmp_path, TIGHT, LOOSE)
        assert main(["validate", spec]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_spec_fails_with_named_problems(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema": SLO_SCHEMA,
            "slos": [{"name": "x", "kind": "latency", "metric": "e2e_s",
                      "threshold_s": 1.0, "percentile": 99, "bogus": True}],
        }))
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_default_spec_round_trips_through_validate(self, tmp_path, capsys):
        main(["default-spec"])
        doc = capsys.readouterr().out
        path = tmp_path / "default.json"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 0


class TestDiff:
    def test_diff_two_trace_files(self, tmp_path, capsys):
        a = _trace_file(tmp_path, "job-a", queue_s=0.05, name="a.json")
        b = _trace_file(tmp_path, "job-b", queue_s=2.05, name="b.json")
        assert main(["diff", a, b, "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["e2e_delta_s"] == pytest.approx(2.0)
        assert diff["stages"][0]["stage"] == "queue"

    def test_diff_writes_html(self, tmp_path, capsys):
        a = _trace_file(tmp_path, "job-a", queue_s=0.05, name="a.json")
        b = _trace_file(tmp_path, "job-b", queue_s=2.05, name="b.json")
        out = tmp_path / "diff.html"
        assert main(["diff", a, b, "-o", str(out)]) == 0
        capsys.readouterr()
        html = out.read_bytes()
        assert b"hiss-slo-diff-data" in html

    def test_diff_rejects_files_that_are_not_job_traces(self, tmp_path, capsys):
        good = _trace_file(tmp_path, "job-b", queue_s=2.05, name="b.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"spans": [{"span_id": "queue"}, {"name": "x"}]}))
        assert main(["diff", str(bad), good]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"INVALID: {bad}: spans[1] has no string 'span_id'",
            f"INVALID: {bad}: no 'root' span",
        ]

    def test_diff_rejects_fetched_documents_that_are_not_job_traces(
        self, monkeypatch, capsys
    ):
        from repro.service.client import ServiceClient

        served = {"job-a": {"error": "gone"}, "job-b": {"spans": "nope"}}
        monkeypatch.setattr(
            ServiceClient, "trace", lambda self, job_id: served[job_id]
        )
        assert main(["diff", "--url", "http://x", "job-a", "job-b"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "INVALID: job-a: not a job trace: no 'spans' array",
            "INVALID: job-b: not a job trace: no 'spans' array",
        ]
