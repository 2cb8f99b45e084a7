"""Self-test of the benchmark: tiny passes of every workload, plus the
open loop's 429 and result-check logic against a scripted fake service.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402
import run  # noqa: E402
import sampler  # noqa: E402

bench.require_program()

import characterize  # noqa: E402
import mitigate  # noqa: E402
import serve  # noqa: E402

SPEC = run.load_spec()


def _result_line(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


def _assert_every_metric(result, group):
    wanted = SPEC[group]
    assert set(result["metrics"]) == set(wanted)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == wanted[name]["unit"], name
        assert isinstance(entry["value"], float), name


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few seconds of work."""
    monkeypatch.setattr(characterize, "FIGURES", ("fig4", "fig5"))
    monkeypatch.setattr(characterize, "HORIZON_MS", 3.0)
    monkeypatch.setattr(characterize, "PASS_S", 0.6)  # two passes of 1.2 s
    monkeypatch.setattr(mitigate, "BUDGET", 12)
    monkeypatch.setattr(mitigate, "ROUND_SIZE", 6)
    monkeypatch.setattr(mitigate, "HORIZON_MS", 3.0)
    monkeypatch.setattr(serve, "MENU", ("fig4", "ipi"))
    monkeypatch.setattr(serve, "HORIZON_MS", 3.0)
    # Every timed job repeats the warm-up spec: the dedupe path, no 429s.
    monkeypatch.setattr(serve, "REPEAT_SHARE", 1.0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_pass_prints_every_metric_with_its_unit(tiny, capsys, workload, traced):
    outcome = run.run_workload(workload, seed=3, seconds=1.2, traced=traced)
    assert run.emit(workload, outcome, traced)
    result, lines = _result_line(capsys)
    _assert_every_metric(result, "per_layer" if traced else "end_to_end")
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    e2e = json.loads(next(l for l in lines if l.startswith("E2E "))[4:])
    assert set(e2e) == set(SPEC["end_to_end"])
    assert all(value > 0 for value in e2e.values()), e2e


# ----------------------------------------------------------------------
# The open loop against a scripted service
# ----------------------------------------------------------------------
class FakeService:
    """Answers the job API: refuses the first POST, then accepts everything."""

    def __init__(self, retry_after_s=0.3, wrong_result_job=None, wrong_result="value"):
        self.retry_after_s = retry_after_s
        self.wrong_result_job = wrong_result_job
        self.wrong_result = wrong_result  # "value" or "missing" (an experiment left out)
        self.posts = []
        self.jobs = {}
        fake = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def _send(self, status, body, headers=()):
                payload = json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                for name, value in headers:
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(payload)

            def do_POST(self):
                length = int(self.headers.get("Content-Length") or 0)
                doc = json.loads(self.rfile.read(length))
                trace = self.headers.get("X-Hiss-Trace-Id")
                fake.posts.append((trace, tuple(doc["experiments"]), time.time()))
                if len(fake.posts) == 1:
                    self._send(429, {"error": "qos-backpressure",
                                     "retry_after_s": fake.retry_after_s,
                                     "trace_id": "trace-of-first-post"},
                               [("Retry-After", f"{fake.retry_after_s:.3f}")])
                    return
                job_id = f"job-{len(fake.jobs):03d}"
                fake.jobs[job_id] = {"spec": doc["experiments"],
                                     "finished_s": time.time() + 0.005}
                self._send(202, {"deduplicated": False, "trace_id": trace or job_id,
                                 "job": {"id": job_id, "state": "queued"}})

            def do_GET(self):
                job_id, _, tail = self.path[len("/v1/jobs/"):].partition("/")
                job = fake.jobs[job_id]
                if tail == "result":
                    wrong = job_id == fake.wrong_result_job
                    value = 2 if wrong and fake.wrong_result == "value" else 1
                    served = job["spec"][1:] if wrong and fake.wrong_result == "missing" \
                        else job["spec"]
                    self._send(200, [{"experiment_id": e, "value": value}
                                     for e in served])
                else:
                    self._send(200, {"id": job_id, "state": "done",
                                     "finished_s": job["finished_s"]})

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.thread.join(timeout=5)
        self.httpd.server_close()
        assert not self.thread.is_alive()

    @property
    def url(self):
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"


class FakeServer:
    """What ``serve.run`` needs of a server process, for this process."""

    def __init__(self, ops_log):
        self.pid = os.getpid()
        self.ops_log = ops_log

    def signal(self, signum):
        pass


def _open_loop(tmp_path, fake):
    from repro.service.client import ServiceClient

    ops_log = tmp_path / "ops.jsonl"
    ops_log.write_text("")
    warm = {
        "job": {"id": "job-warm", "runs_executed": 1},
        "reference": {e: serve.canonical_result({"experiment_id": e, "value": 1})
                      for e in serve.MENU},
        "trace": {"spans": [{"span_id": "batch", "duration_s": 0.5}]},
        "slowdown": 1.0,
        "probes": [],
    }
    return serve.run(seed=5, seconds=1.2, traced=False,
                     server=FakeServer(str(ops_log)),
                     client=ServiceClient(fake.url), warm=warm)


def test_429_is_retried_with_its_trace_id_and_timed_from_first_due(tmp_path):
    with FakeService(retry_after_s=0.3) as fake:
        outcome = _open_loop(tmp_path, fake)
    first_trace, first_spec, first_at = fake.posts[0]
    assert first_trace is None
    retries = [p for p in fake.posts[1:] if p[0] == "trace-of-first-post"]
    assert len(retries) == 1 and retries[0][1] == first_spec
    assert retries[0][2] - first_at >= 0.3
    latency_ms = outcome.samples["job_ms"]
    assert latency_ms[0] >= 300.0  # includes the Retry-After it sat out
    assert max(latency_ms[i] for i in latency_ms if i) < 300.0
    assert outcome.failed == 0 and outcome.attempted == 12


@pytest.mark.parametrize("wrong_result", ["value", "missing"])
def test_mismatched_served_result_counts_as_failed(tmp_path, wrong_result):
    with FakeService(retry_after_s=0.05, wrong_result_job="job-004",
                     wrong_result=wrong_result) as fake:
        outcome = _open_loop(tmp_path, fake)
    assert outcome.failed == 1
    verdicts = {name: passed for name, passed, _detail in outcome.checks}
    assert verdicts["every served result equals the warm-up result"] is False


# ----------------------------------------------------------------------
# Statistics, inputs and exit behaviour
# ----------------------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 201))
    found = bench.tail(values)
    assert (found.percentile, found.samples) == (95.0, 200)
    assert found.value == pytest.approx(190.5, abs=0.01)
    assert sum(v > found.value for v in values) == 10
    assert bench.quantile(list(range(1, 102)), 50.0) == pytest.approx(51.0)


def test_statistics_of_failed_runs_read_zero():
    assert bench.quantile([], 50.0) == 0.0
    short = bench.tail([1.0] * 10)
    assert (short.value, short.percentile, short.samples) == (0.0, 0.0, 10)


def _frames(*modules):
    """A fake stack, innermost first: (module name, file name) per frame."""
    frame = None
    for name, filename in reversed(modules):
        frame = SimpleNamespace(f_globals={"__name__": name}, f_back=frame,
                                f_code=SimpleNamespace(co_filename=filename))
    return frame


def test_sampler_charges_the_benchmarks_own_frames_apart():
    here = os.path.join(bench.BENCH_DIR, "probe.py")
    core = ("repro.core.experiment", "/src/repro/core/experiment.py")
    assert sampler.layer_of(_frames(("probe", here), ("bench", here), core)) == "bench"
    assert sampler.layer_of(
        _frames(("json", "/lib/json/encoder.py"), ("repro.uarch.core", "/u.py"), core)
    ) == "uarch"
    assert sampler.layer_of(_frames(("random", "/lib/random.py"), core)) == "random"
    assert sampler.layer_of(_frames(("json", "/lib/json/encoder.py"))) == "other"


def test_an_incorrect_run_exits_nonzero(monkeypatch, capsys):
    def failing(workload, seed, seconds, traced):
        outcome = bench.Outcome(metrics={name: 1.0 for name in SPEC["end_to_end"]})
        outcome.check("a check that fails", False)
        return outcome

    monkeypatch.setattr(run, "run_workload", failing)
    assert run.main(["--workload", "characterize", "--seconds", "1"]) == 1
    result, _lines = _result_line(capsys)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_job_specs_are_seeded_and_mix_repeats():
    specs = serve.job_specs(7, 200)
    assert specs == serve.job_specs(7, 200)
    assert specs != serve.job_specs(8, 200)
    assert len(set(specs)) < len(specs)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "characterize",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
