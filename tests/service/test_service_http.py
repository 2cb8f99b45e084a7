"""End-to-end service tests over a real socket on an ephemeral port.

These drive the daemon exactly as a client would — HTTP requests against
``127.0.0.1:<ephemeral>`` — and assert the ISSUE's acceptance behaviors:
submit→poll→fetch, RunKey dedupe, warm-cache jobs with zero simulations,
bounded-queue 429 + ``Retry-After``, QoS back-off under a burst, graceful
drain, and byte-for-byte equality with the CLI's ``--json`` output.
"""

import http.client
import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import clear_cache, set_disk_cache
from repro.service import HissService, ServiceClient, ServiceGovernor, ServiceRejected

from .conftest import FakeClock

#: Small but non-trivial: fig4 --quick at 1 ms plans 8 unique runs.
SPEC = {"experiments": ["fig4"], "quick": True, "horizon_ms": 1.0}


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    set_disk_cache(None)
    yield
    clear_cache()
    set_disk_cache(None)


def install_fake_clock_governor(svc):
    """Swap a FakeClock-driven twin of ``svc``'s governor into the service.

    The governor resamples from its clock, so a test that advances the
    clock by hand decides exactly which utilization sample admission sees,
    however long the host takes to simulate.
    """
    clock = FakeClock()
    old = svc.governor
    governor = ServiceGovernor(
        threshold=old.threshold,
        capacity_cores=old.capacity_cores,
        sample_period_s=old.sample_period_s,
        window_s=old.window_s,
        initial_delay_s=old.initial_delay_s,
        max_delay_s=old.max_delay_s,
        clock=clock,
    )
    svc.governor = svc.admission.governor = svc.scheduler.governor = governor
    return governor, clock


@contextmanager
def service(**kwargs):
    kwargs.setdefault("qos_threshold", 10.0)  # backpressure off unless asked
    svc = HissService(port=0, **kwargs)
    svc.start()
    try:
        yield svc, ServiceClient(svc.url, timeout_s=30)
    finally:
        if not getattr(svc, "_test_stopped", False):
            svc.stop()


class TestEndToEnd:
    def test_submit_poll_fetch(self):
        with service() as (svc, client):
            assert client.health()["status"] == "ok"
            body = client.submit(**_spec_args(SPEC))
            assert body["deduplicated"] is False
            job = body["job"]
            assert job["state"] in ("queued", "running", "done")
            assert job["planned_runs"] == 8
            doc = client.wait(job["id"], timeout_s=120)
            assert doc["state"] == "done"
            assert doc["runs_executed"] == 8 and doc["runs_cached"] == 0
            results = client.result(job["id"])
            assert [r["experiment_id"] for r in results] == ["fig4"]
            assert results[0]["rows"]  # a real table came back

    def test_duplicate_submission_dedupes_by_runkey(self):
        with service() as (svc, client):
            first = client.submit(**_spec_args(SPEC))
            second = client.submit(**_spec_args(SPEC))
            assert second["deduplicated"] is True
            assert second["job"]["id"] == first["job"]["id"]
            assert second["job"]["submissions"] == 2
            # A different grid is different work: no dedupe.
            other = client.submit(["fig4"], quick=True, horizon_ms=1.5)
            assert other["deduplicated"] is False
            assert other["job"]["id"] != first["job"]["id"]
            client.wait(other["job"]["id"], timeout_s=120)

    def test_warm_cache_job_runs_zero_simulations(self):
        with service() as (svc, client):
            first = client.submit(**_spec_args(SPEC))
            done = client.wait(first["job"]["id"], timeout_s=120)
            assert done["runs_executed"] == 8
            client.evict(first["job"]["id"])  # forget the twin, keep the cache
            second = client.submit(**_spec_args(SPEC))
            assert second["deduplicated"] is False
            doc = client.wait(second["job"]["id"], timeout_s=120)
            assert doc["state"] == "done"
            assert doc["runs_executed"] == 0
            assert doc["runs_cached"] == 8
            # Both served the identical document.
            assert client.result(second["job"]["id"]) is not None

    def test_a_grid_seen_before_renders_without_its_harness(self, monkeypatch):
        from repro.experiments.common import REGISTRY

        calls = []
        harness = REGISTRY["fig4"]

        def counted(**kwargs):
            calls.append(kwargs)
            return harness(**kwargs)

        monkeypatch.setitem(REGISTRY, "fig4", counted)
        with service() as (svc, client):
            first = client.submit(**_spec_args(SPEC))["job"]["id"]
            client.wait(first, timeout_s=120)
            served = [client.result(first)]
            client.evict(first)  # forget the twin, keep the cache and memos
            second = client.submit(**_spec_args(SPEC))["job"]["id"]
            doc = client.wait(second, timeout_s=120)
            assert doc["runs_cached"] == 8 and doc["runs_executed"] == 0
            served.append(client.result(second))
        assert len(calls) == 2  # the first job's planning pass and render
        for result in served:
            result[0]["elapsed_s"] = 0.0
        assert served[0] == served[1]

    def test_queue_full_yields_429_with_retry_after(self):
        with service(queue_limit=1) as (svc, client):
            svc.scheduler.pause()
            time.sleep(0.05)
            client.submit(["table1"])
            request = urllib.request.Request(
                svc.url + "/v1/jobs",
                data=json.dumps({"experiment": "ipi", "horizon_ms": 1.0}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            error = excinfo.value
            assert error.code == 429
            assert float(error.headers["Retry-After"]) > 0
            body = json.loads(error.read())
            assert body["error"] == "queue-full"
            svc.scheduler.resume()

    def test_qos_backoff_kicks_in_under_burst(self):
        with service(
            qos_threshold=0.0, qos_sample_period_s=0.01, qos_window_s=0.01
        ) as (svc, client):
            governor, clock = install_fake_clock_governor(svc)
            first = client.submit(**_spec_args(SPEC))
            assert client.wait(first["job"]["id"], timeout_s=120)["state"] == "done"
            clock.advance(1.0)  # the next gate samples the burst's window
            delays = []
            for horizon in (2.0, 3.0, 4.0):  # distinct work, so no dedupe
                with pytest.raises(ServiceRejected) as excinfo:
                    client.submit(["fig4"], quick=True, horizon_ms=horizon)
                assert excinfo.value.reason == "qos-backpressure"
                delays.append(excinfo.value.retry_after_s)
            # The Fig. 11 shape: refusals double the advertised delay.
            assert delays[1] == pytest.approx(delays[0] * 2)
            assert delays[2] == pytest.approx(delays[1] * 2)
            assert governor.throttle_events == 3

    def test_cache_served_job_skips_backpressure(self):
        with service(
            qos_threshold=0.0, qos_sample_period_s=0.01, qos_window_s=0.01
        ) as (svc, client):
            governor, clock = install_fake_clock_governor(svc)
            first = client.submit(**_spec_args(SPEC))
            assert client.wait(first["job"]["id"], timeout_s=120)["state"] == "done"
            clock.advance(1.0)
            assert governor.over_threshold
            client.evict(first["job"]["id"])  # forget the twin, keep the cache
            cached = client.submit(**_spec_args(SPEC))
            assert cached["deduplicated"] is False
            doc = client.wait(cached["job"]["id"], timeout_s=120)
            assert doc["state"] == "done" and doc["runs_executed"] == 0
            # Work that simulates still meets the governor: uncached runs,
            # a serial-only experiment (table1 probes Systems directly), and
            # a profiled job, which re-simulates its cached runs.
            for args in (
                {"experiments": ["fig4"], "quick": True, "horizon_ms": 2.0},
                {"experiments": ["table1"]},
                dict(_spec_args(SPEC), profile=True),
            ):
                with pytest.raises(ServiceRejected) as excinfo:
                    client.submit(**args)
                assert excinfo.value.reason == "qos-backpressure"
            assert governor.throttle_events == 3

    def test_graceful_shutdown_drains_queued_jobs(self):
        with service(queue_limit=8) as (svc, client):
            svc.scheduler.pause()
            time.sleep(0.05)
            ids = [
                client.submit(["table1"])["job"]["id"],
                client.submit(["fig4"], quick=True, horizon_ms=1.0)["job"]["id"],
            ]
            svc.stop(drain=True)
            svc._test_stopped = True
            for job_id in ids:
                job = svc.store.get(job_id)
                assert job is not None and job.state == "done"
                assert job.results
            # Draining servers refuse new work with 503.
            status, body, _headers = svc.submit_document({"experiment": "table1"})
            assert status == 503 and body["error"] == "draining"

    def test_served_result_matches_cli_json_byte_for_byte(self, tmp_path):
        cli_path = tmp_path / "cli.json"
        repo_src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_src) + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.run_all",
                "fig4", "--quick", "--horizon-ms", "1", "--json", str(cli_path),
            ],
            check=True, env=env, stdout=subprocess.DEVNULL, timeout=600,
        )
        cli_doc = json.loads(cli_path.read_text())
        with service() as (svc, client):
            body = client.submit(**_spec_args(SPEC))
            client.wait(body["job"]["id"], timeout_s=240)
            served_doc = client.result(body["job"]["id"])
        # elapsed_s is wall-clock bookkeeping, not simulated output; all
        # simulated numbers must agree to the last byte.
        for doc in (cli_doc, served_doc):
            for result in doc:
                result["elapsed_s"] = 0.0
        assert json.dumps(cli_doc, sort_keys=True) == json.dumps(
            served_doc, sort_keys=True
        )


class TestApiSurface:
    def test_experiments_endpoint_covers_registry(self):
        from repro.experiments.common import REGISTRY, UNPLANNABLE

        with service() as (svc, client):
            doc = client.experiments()
            ids = {e["id"] for e in doc["experiments"]}
            assert ids == set(REGISTRY)
            by_id = {e["id"]: e for e in doc["experiments"]}
            for experiment_id in UNPLANNABLE:
                assert by_id[experiment_id]["plannable"] is False

    def test_bad_spec_is_400(self):
        with service() as (svc, client):
            status, body, _ = svc.submit_document({"experiment": "figZZ"})
            assert status == 400 and body["error"] == "bad-spec"
            status, body, _ = svc.submit_document({"experiment": "fig4", "x": 1})
            assert status == 400

    def test_unknown_job_is_404_and_unfinished_result_is_409(self):
        with service() as (svc, client):
            with pytest.raises(Exception) as excinfo:
                client.status("job-nope")
            assert getattr(excinfo.value, "status", None) == 404
            svc.scheduler.pause()
            time.sleep(0.05)
            body = client.submit(["table1"])
            with pytest.raises(Exception) as excinfo:
                client.result(body["job"]["id"])
            assert getattr(excinfo.value, "status", None) == 409
            svc.scheduler.resume()

    def test_metrics_json_and_text(self):
        with service() as (svc, client):
            body = client.submit(["table1"])
            client.wait(body["job"]["id"], timeout_s=60)
            doc = client.metrics()
            assert doc["counters"]["service.jobs.submitted"] == 1
            assert doc["counters"]["service.jobs.completed"] == 1
            assert "service.queue.depth" in doc["gauges"]
            assert "service.qos.fraction" in doc["gauges"]
            text = client.metrics(text=True)
            assert "service.jobs.completed 1" in text
            assert "service.queue.depth" in text

    def test_handler_exception_is_json_500_with_trace_id(self, monkeypatch):
        import repro.service.server as server

        def broken_plan(spec):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(server, "plan_spec", broken_plan)
        with service() as (svc, client):
            records = []
            svc.ops_log.tee = records.append
            request = urllib.request.Request(
                svc.url + "/v1/jobs",
                data=json.dumps(SPEC).encode(),
                headers={"Content-Type": "application/json",
                         "X-Hiss-Trace-Id": "00c0ffee00c0ffee"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            error = excinfo.value
            assert error.code == 500
            assert error.headers["X-Hiss-Trace-Id"] == "00c0ffee00c0ffee"
            body = json.loads(error.read())
            assert body == {
                "error": "internal",
                "detail": "ZeroDivisionError: float division by zero",
                "trace_id": "00c0ffee00c0ffee",
            }
            (logged,) = [r for r in records if r["event"] == "http.error"]
            assert logged["trace"] == "00c0ffee00c0ffee"
            assert "broken_plan" in logged["traceback"]
            # The connection survived; the server still answers.
            assert client.health()["status"] == "ok"
            assert client.metrics()["counters"]["service.http.errors"] == 1

    def test_kept_alive_connection_does_not_stall(self):
        # Headers and body leave in two writes; with Nagle's algorithm on,
        # each reply on a reused connection waited ~40 ms for the client's
        # delayed ACK (20 GETs took about 0.9 s).
        with service() as (svc, _client):
            connection = http.client.HTTPConnection(svc.host, svc.port, timeout=10)
            try:
                begin = time.perf_counter()
                for _ in range(20):
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    assert response.status == 200
                    assert json.loads(response.read())["status"] == "ok"
                elapsed_s = time.perf_counter() - begin
            finally:
                connection.close()
        assert elapsed_s < 0.4

    def test_jobs_listing(self):
        with service() as (svc, client):
            body = client.submit(["table1"])
            client.wait(body["job"]["id"], timeout_s=60)
            listing = client.jobs()
            assert [j["id"] for j in listing["jobs"]] == [body["job"]["id"]]


def _spec_args(spec):
    return dict(
        experiments=spec["experiments"],
        quick=spec["quick"],
        horizon_ms=spec["horizon_ms"],
    )
