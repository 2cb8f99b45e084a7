"""End-to-end tracing/observability tests for the serving tier.

The ISSUE's acceptance behaviors: a served job's trace covers its whole
wall-clock life with no gaps at stage boundaries, worker-side sim spans
carry the parent trace id across the process pool, the stitched Chrome
trace is valid, tracing on/off does not change served result bytes, and
the ops surfaces (``/v1/ops``, JSONL log, ``hiss top``) reflect reality.
"""

import http.client
import io
import json
import urllib.request

import pytest

from repro.core import clear_cache, set_disk_cache
from repro.service import HissService, ServiceClient, ServiceError
from repro.service.obs import OpsLog, build_trace_document, ops_document
from repro.service.top import render_ops
from repro.telemetry.export import validate_chrome_trace
from repro.telemetry.spans import validate_trace_document

#: Small but parallelizable: fig4 --quick at 1 ms plans 8 unique runs.
SPEC = {"experiments": ["fig4"], "quick": True, "horizon_ms": 1.0}


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    set_disk_cache(None)
    yield
    clear_cache()
    set_disk_cache(None)


def _serve(**kwargs):
    kwargs.setdefault("qos_threshold", 10.0)
    return HissService(port=0, **kwargs)


def _client(svc):
    """A client of ``svc``; close it (a ``with`` block) when done."""
    return ServiceClient(svc.url, timeout_s=30)


def _served_trace(jobs=2, chrome=False):
    with _serve(jobs=jobs) as svc, _client(svc) as client:
        body = client.submit(**SPEC_ARGS)
        job_id = body["job"]["id"]
        doc = client.wait(job_id, timeout_s=120)
        assert doc["state"] == "done"
        return body, client.trace(job_id, chrome=chrome)


SPEC_ARGS = dict(
    experiments=SPEC["experiments"], quick=SPEC["quick"],
    horizon_ms=SPEC["horizon_ms"],
)


class TestServedTrace:
    def test_lifecycle_spans_cover_job_with_no_gaps(self):
        body, trace = _served_trace(jobs=2)
        assert validate_trace_document(trace) == []
        assert trace["trace_id"] == body["trace_id"]
        spans = {s["span_id"]: s for s in trace["spans"]}
        # Submit -> queue -> batch -> render chain on shared timestamps:
        # each stage ends exactly where the next starts, by construction.
        assert spans["submit"]["end_s"] == spans["queue"]["start_s"]
        assert spans["queue"]["end_s"] == spans["batch"]["start_s"]
        assert spans["batch"]["end_s"] == spans["render"]["start_s"]
        assert spans["render"]["end_s"] == spans["root"]["end_s"]
        assert spans["submit"]["start_s"] == spans["root"]["start_s"]
        for span_id in ("submit", "queue", "batch", "render"):
            assert spans[span_id]["parent_id"] == "root"
            assert spans[span_id]["status"] == "ok"
        assert spans["root"]["args"]["planned_runs"] == 8

    def test_worker_sim_spans_carry_parent_trace_id_across_pool(self):
        import os

        body, trace = _served_trace(jobs=2)
        sim_spans = [s for s in trace["spans"] if s["category"] == "sim"]
        assert len(sim_spans) == 8
        for span in sim_spans:
            assert span["trace_id"] == body["trace_id"]
            assert span["parent_id"] == "batch"
        # With --jobs 2 the runs crossed a process boundary: the stamped
        # worker pids are real and none of them is this (parent) process.
        worker_pids = {run["worker_pid"] for run in trace["sim"]}
        assert worker_pids and os.getpid() not in worker_pids
        for run in trace["sim"]:
            assert run["trace_id"] == body["trace_id"]
            assert run["wall_end_s"] >= run["wall_start_s"]
            assert run["events"], "tracing on: in-sim events captured"
        # Sim spans nest inside the batch stage's wall-clock window.
        spans = {s["span_id"]: s for s in trace["spans"]}
        for span in sim_spans:
            assert span["start_s"] >= spans["batch"]["start_s"]
            assert span["end_s"] <= spans["batch"]["end_s"]

    def test_stitched_chrome_trace_is_valid_and_monotonic(self):
        _body, chrome = _served_trace(jobs=2, chrome=True)
        assert validate_chrome_trace(chrome) == []
        last_ts = {}
        pids = set()
        for event in chrome["traceEvents"]:
            pids.add(event["pid"])
            if event.get("ph") == "M":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= 0.0
            assert event["ts"] >= last_ts.get(key, 0.0)
            last_ts[key] = event["ts"]
        assert 0 in pids and len(pids) == 9  # service + one pid per run

    def test_trace_endpoint_while_queued_and_404(self):
        with _serve() as svc, _client(svc) as client:
            svc.scheduler.pause()
            body = client.submit(["table1"])
            trace = client.trace(body["job"]["id"])
            assert validate_trace_document(trace) == []
            root = next(s for s in trace["spans"] if s["span_id"] == "root")
            assert root["end_s"] is None  # still in flight: open span
            svc.scheduler.resume()
            client.wait(body["job"]["id"], timeout_s=60)
            with pytest.raises(ServiceError) as excinfo:
                client.trace("job-nope")
            assert excinfo.value.status == 404


class TestBackoffRounds:
    def test_429_rounds_appear_in_the_admitted_jobs_trace(self):
        with _serve(queue_limit=1) as svc, _client(svc) as client:
            svc.scheduler.pause()
            status, _body, _headers = svc.submit_document({"experiment": "table1"})
            assert status == 202
            # The queue is full: same client retries with the 429's trace id.
            status, body, headers = svc.submit_document(
                {"experiment": "table1", "quick": True}
            )
            assert status == 429
            rejected_trace = body["trace_id"]
            assert headers["X-Hiss-Trace-Id"] == rejected_trace
            status, body, _headers = svc.submit_document(
                {"experiment": "table1", "quick": True}, trace_id=rejected_trace
            )
            assert status == 429
            rejections = 2
            svc.scheduler.resume()
            import time

            deadline = time.monotonic() + 60
            while True:
                status, body, _headers = svc.submit_document(
                    {"experiment": "table1", "quick": True}, trace_id=rejected_trace
                )
                if status == 202:
                    break
                rejections += 1
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert body["trace_id"] == rejected_trace
            job_id = body["job"]["id"]
            client.wait(job_id, timeout_s=120)
            trace = client.trace(job_id)
            assert validate_trace_document(trace) == []
            backoffs = [
                s for s in trace["spans"] if s["name"] == "admission.backoff"
            ]
            assert len(backoffs) == rejections
            for round_index, span in enumerate(backoffs):
                assert span["status"] == "rejected"
                assert span["trace_id"] == rejected_trace
                assert span["args"]["round"] == round_index + 1
                assert span["args"]["retry_after_s"] > 0
            # The root span opens at the first rejected round, so the
            # back-off wait is inside the end-to-end accounting.
            root = next(s for s in trace["spans"] if s["span_id"] == "root")
            assert root["start_s"] <= backoffs[0]["start_s"]

    def test_bad_client_trace_ids_are_replaced_not_trusted(self):
        with _serve() as svc, _client(svc) as client:
            status, body, _headers = svc.submit_document(
                {"experiment": "table1"}, trace_id="<script>alert(1)</script>"
            )
            assert status == 202
            assert body["trace_id"] != "<script>alert(1)</script>"
            client.wait(body["job"]["id"], timeout_s=60)


class TestResultBytesUnchanged:
    def _result_bytes(self, trace_enabled):
        clear_cache()
        with _serve(jobs=2, trace=trace_enabled) as svc, _client(svc) as client:
            body = client.submit(**SPEC_ARGS)
            job_id = body["job"]["id"]
            doc = client.wait(job_id, timeout_s=120)
            assert doc["state"] == "done"
            with urllib.request.urlopen(
                f"{svc.url}/v1/jobs/{job_id}/result", timeout=30
            ) as response:
                return response.read()

    def test_served_results_byte_identical_tracing_on_and_off(self):
        traced, untraced = self._result_bytes(True), self._result_bytes(False)
        # elapsed_s is wall-clock bookkeeping (it differs between any two
        # serves); every simulated number must agree to the last byte.
        docs = [json.loads(raw) for raw in (traced, untraced)]
        for doc in docs:
            for result in doc:
                result["elapsed_s"] = 0.0
        rendered = [json.dumps(doc, sort_keys=True) for doc in docs]
        assert rendered[0] == rendered[1]

    def test_trace_off_still_serves_lifecycle_spans_without_events(self):
        clear_cache()
        with _serve(jobs=2, trace=False) as svc, _client(svc) as client:
            body = client.submit(**SPEC_ARGS)
            client.wait(body["job"]["id"], timeout_s=120)
            trace = client.trace(body["job"]["id"])
            assert validate_trace_document(trace) == []
            assert [s for s in trace["spans"] if s["category"] == "sim"]
            assert all(not run["events"] for run in trace["sim"])


class _Http10Connection(http.client.HTTPConnection):
    _http_vsn, _http_vsn_str = 10, "HTTP/1.0"


class TestStreamedTrace:
    """``GET /trace`` streams the one builder's bytes, one run at a time."""

    @staticmethod
    def _streamed_equals_built(svc, client, job_id):
        status, headers, raw = client._exchange(
            "GET", f"/v1/jobs/{job_id}/trace", None, {}, 30
        )
        assert status == 200
        assert headers["Transfer-Encoding"] == "chunked"
        built = json.dumps(build_trace_document(svc.store.get(job_id))) + "\n"
        assert raw == built.encode("utf-8")
        return json.loads(raw)

    def test_streamed_body_is_the_built_document_byte_for_byte(self):
        clear_cache()
        with _serve(trace=False) as svc, _client(svc) as client:
            body = client.submit(["fig4"], quick=True, horizon_ms=5.0)
            client.wait(body["job"]["id"], timeout_s=120)
            untraced = self._streamed_equals_built(svc, client, body["job"]["id"])
        assert untraced["sim"] and all(not run["events"] for run in untraced["sim"])

        clear_cache()
        with _serve() as svc, _client(svc) as client:
            body = client.submit(["fig4", "ipi"], quick=True, horizon_ms=5.0)
            job_id = body["job"]["id"]
            client.wait(job_id, timeout_s=120)
            traced = self._streamed_equals_built(svc, client, job_id)
            assert sum(run["events_dropped"] for run in traced["sim"]) > 0
            assert all(run["events"] for run in traced["sim"])

            # An HTTP/1.0 client reads no chunked body: it gets the same
            # bytes with a Content-Length.
            http10 = _Http10Connection(svc.host, svc.port, timeout=30)
            try:
                http10.request("GET", f"/v1/jobs/{job_id}/trace")
                reply = http10.getresponse()
                assert reply.getheader("Transfer-Encoding") is None
                raw = reply.read()
            finally:
                http10.close()
            assert raw == (json.dumps(traced) + "\n").encode("utf-8")
            assert reply.getheader("Content-Length") == str(len(raw))

            body = client.submit(["fig4"], quick=True, horizon_ms=5.0)
            cached_id = body["job"]["id"]
            assert client.wait(cached_id, timeout_s=120)["runs_executed"] == 0
            cached = self._streamed_equals_built(svc, client, cached_id)
            assert cached["sim"] == []

            # The chunked reply left the kept-alive connection usable.
            sock = client._local.connection.sock
            assert client.status(job_id)["state"] == "done"
            assert client._local.connection.sock is sock


class TestStoredEvents:
    def test_a_runs_blob_serves_the_bytes_of_its_live_events(self):
        from repro.core import plan_runs
        from repro.core.pool import run_task
        from repro.service.obs import decode_events, encode_events, sim_event_dicts

        keys, _skipped = plan_runs(["ipi"], lambda _id: {"horizon_ns": 5_000_000})
        _metrics, info = run_task(keys[0], 4000)
        events = info["events"]
        assert events
        assert json.dumps(decode_events(encode_events(events))) == json.dumps(
            sim_event_dicts(events)
        )
        assert encode_events([]) is None and decode_events(None) == []


class TestDroppedEvents:
    def test_dropped_gauge_counts_exactly_the_runs_own_drops(self):
        # 52 runs keep about 103k events between them: more than a
        # 100,000-event batch-wide ring holds, so one would inflate the gauge.
        clear_cache()
        with _serve(jobs=2) as svc, _client(svc) as client:
            body = client.submit(["fig3a", "fig3b"], quick=True, horizon_ms=5.0)
            job_id = body["job"]["id"]
            assert client.wait(job_id, timeout_s=300)["state"] == "done"
            trace = client.trace(job_id)
            gauges = client.metrics()["gauges"]
        assert sum(len(run["events"]) for run in trace["sim"]) > 100_000
        run_drops = sum(run["events_dropped"] for run in trace["sim"])
        assert run_drops > 0
        assert gauges["service.trace.dropped_events"] == run_drops


class TestOpsSurfaces:
    def test_ops_endpoint_and_top_render(self):
        with _serve() as svc, _client(svc) as client:
            body = client.submit(["table1"])
            client.wait(body["job"]["id"], timeout_s=60)
            ops = client.ops()
            assert ops["queue"]["limit"] == 16
            assert ops["jobs"]["counts"] == {"done": 1}
            assert ops["trace"]["enabled"] is True
            assert ops["latency"]["e2e_s"]["count"] == 1
            recent = ops["jobs"]["recent"]
            assert recent[0]["id"] == body["job"]["id"]
            assert recent[0]["trace_id"] == body["trace_id"]
            frame = render_ops(ops)
            assert body["job"]["id"] in frame
            assert "e2e_s" in frame and "queue" in frame

    def test_render_ops_handles_empty_service(self):
        with _serve() as svc:
            frame = render_ops(ops_document(svc))
            assert "hiss top" in frame and "(none yet)" in frame

    def test_metrics_gains_trace_and_disk_gauges(self, tmp_path):
        with _serve(cache_dir=str(tmp_path / "cache")) as svc, _client(svc) as client:
            body = client.submit(["table1"])
            client.wait(body["job"]["id"], timeout_s=60)
            doc = client.metrics()
            gauges = doc["gauges"]
            assert gauges["service.trace.enabled"] == 1.0
            assert "service.trace.dropped_events" in gauges
            assert "service.disk_cache.hit_rate" in gauges
            text = client.metrics(text=True)
            assert "service.trace.enabled" in text

    def test_jsonl_ops_log_correlates_a_job_lifecycle(self):
        stream = io.StringIO()
        with _serve(ops_log=OpsLog(stream)) as svc, _client(svc) as client:
            body = client.submit(["table1"])
            client.wait(body["job"]["id"], timeout_s=60)
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        events = [r["event"] for r in records]
        for expected in ("job.admitted", "batch.start", "job.started", "job.done"):
            assert expected in events
        trace_ids = {
            r["trace"] for r in records if r["event"].startswith("job.")
        }
        assert trace_ids == {body["trace_id"]}
        done = next(r for r in records if r["event"] == "job.done")
        assert done["job"] == body["job"]["id"]
        assert done["e2e_s"] > 0
        for record in records:
            assert isinstance(record["ts"], float)

    def test_opslog_disabled_is_free_and_open_path(self, tmp_path):
        log = OpsLog(None)
        assert not log.enabled
        log.log("anything", x=1)  # no-op, no error
        assert log.lines == 0
        path = tmp_path / "ops.jsonl"
        log = OpsLog.open_path(str(path))
        log.log("hello", n=2, skip=None)
        log.close()
        (record,) = [json.loads(l) for l in path.read_text().splitlines()]
        assert record["event"] == "hello" and record["n"] == 2
        assert "skip" not in record


class TestClientErrorsCarryTraceIds:
    def test_bad_spec_error_message_names_the_trace(self):
        with _serve() as svc, _client(svc) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(["figZZ"])
            assert excinfo.value.trace_id
            assert f"[trace {excinfo.value.trace_id}]" in str(excinfo.value)

    def test_per_request_timeout_override(self):
        with _serve() as svc, _client(svc) as client:
            # A generous per-request override still succeeds...
            assert client._get("/healthz", timeout_s=10)["status"] == "ok"
            # ...and the configured default remains untouched.
            assert client.timeout_s == 30


class TestTraceDocumentUnit:
    def test_build_trace_document_for_synthetic_job(self):
        from repro.service.jobs import DONE, Job, JobSpec

        job = Job(
            id="job-1", spec=JobSpec(("fig4",)), dedupe_key="d",
            trace_id="ab12cd34ab12cd34", state=DONE,
            received_s=10.0, created_s=10.2, started_s=11.0,
            exec_done_s=14.0, render_start_s=14.0, finished_s=14.5,
            backoff_rounds=[
                {"received_s": 9.0, "rejected_s": 9.1, "reason": "queue-full",
                 "retry_after_s": 0.5}
            ],
            sim_runs=[
                {"run": "r0", "trace_ids": ["ab12cd34ab12cd34", "feedbeef"],
                 "wall_start_s": 11.5, "wall_end_s": 13.0, "worker_pid": 7,
                 "events_dropped": 0, "events": []}
            ],
        )
        doc = build_trace_document(job)
        assert validate_trace_document(doc) == []
        spans = {s["span_id"]: s for s in doc["spans"]}
        assert spans["root"]["start_s"] == 9.0  # back-off counts in e2e
        assert spans["backoff-0"]["status"] == "rejected"
        assert spans["submit"]["start_s"] == 10.0
        assert spans["sim-0"]["args"]["shared_with_traces"] == ["feedbeef"]
        assert doc["sim"][0]["parent_span_id"] == "sim-0"
