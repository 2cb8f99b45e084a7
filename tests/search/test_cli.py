"""End-to-end tests for the ``hiss sweep`` console entry point."""

import json

import pytest

from repro.search.cli import EXIT_INTERRUPTED, main

COMMON = ["--budget", "4", "--round-size", "2", "--horizon-ms", "1", "--seed", "5"]


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_run_writes_archive_and_summary(self, tmp_path, capsys):
        state = str(tmp_path / "s.jsonl")
        assert run_cli("run", "--state", state, *COMMON) == 0
        out = capsys.readouterr().out
        assert "sweep complete" in out
        with open(state + ".archive.json") as handle:
            document = json.load(handle)
        assert document["evaluations"] == 4

    def test_run_refuses_existing_state(self, tmp_path, capsys):
        state = str(tmp_path / "s.jsonl")
        assert run_cli("run", "--state", state, *COMMON) == 0
        with pytest.raises(FileExistsError):
            run_cli("run", "--state", state, *COMMON)

    def test_metrics_flag_prints_search_counters(self, tmp_path, capsys):
        state = str(tmp_path / "s.jsonl")
        assert run_cli("run", "--state", state, "--metrics", *COMMON) == 0
        out = capsys.readouterr().out
        assert "search.evaluations 4" in out
        assert "search.frontier_size" in out

    def test_spans_flag_writes_trace_document(self, tmp_path):
        state = str(tmp_path / "s.jsonl")
        spans = str(tmp_path / "spans.json")
        assert run_cli("run", "--state", state, "--spans", spans, *COMMON) == 0
        with open(spans) as handle:
            document = json.load(handle)
        names = [span["name"] for span in document["spans"]]
        assert any(name.startswith("round ") for name in names)


class TestInterruptAndResume:
    def test_full_kill_resume_convergence(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        killed = str(tmp_path / "killed.jsonl")
        code = run_cli(
            "run", "--state", killed, "--cache-dir", cache,
            "--interrupt-after", "3", *COMMON,
        )
        assert code == EXIT_INTERRUPTED
        assert "interrupted" in capsys.readouterr().err

        assert run_cli(
            "resume", "--state", killed, "--cache-dir", cache, *COMMON
        ) == 0
        resumed_out = capsys.readouterr().out
        assert "simulated 0" in resumed_out  # resume re-runs from disk cache

        reference = str(tmp_path / "reference.jsonl")
        assert run_cli(
            "run", "--state", reference, "--cache-dir", cache, *COMMON
        ) == 0
        with open(killed + ".archive.json", "rb") as fa, \
                open(reference + ".archive.json", "rb") as fb:
            assert fa.read() == fb.read()


class TestReportAndValidate:
    def test_report_table_and_html(self, tmp_path, capsys):
        state = str(tmp_path / "s.jsonl")
        html = str(tmp_path / "frontier.html")
        assert run_cli("run", "--state", state, *COMMON) == 0
        assert run_cli("report", "--state", state, "-o", html) == 0
        out = capsys.readouterr().out
        assert "frontier point(s)" in out
        with open(html) as handle:
            assert "hiss-sweep-data" in handle.read()

    def test_report_without_archive_errors(self, tmp_path, capsys):
        assert run_cli("report", "--state", str(tmp_path / "nope.jsonl")) == 1
        assert "no archive" in capsys.readouterr().err

    def test_validate_accepts_a_finished_sweep(self, tmp_path, capsys):
        state = str(tmp_path / "s.jsonl")
        assert run_cli("run", "--state", state, *COMMON) == 0
        assert run_cli("validate", "--state", state) == 0
        assert "valid:" in capsys.readouterr().out

    def test_validate_flags_tampered_journal(self, tmp_path, capsys):
        state = str(tmp_path / "s.jsonl")
        assert run_cli("run", "--state", state, *COMMON) == 0
        with open(state, "a") as handle:
            handle.write(
                '{"kind":"eval","round":0,"point":{"bogus":1},"vector":[1]}\n'
            )
        assert run_cli("validate", "--state", state) == 1
        assert "INVALID" in capsys.readouterr().err
