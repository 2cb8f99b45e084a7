"""SLO engine wired into the serving tier.

The ISSUE's acceptance behaviors: an injected tail-latency regression
produces an AlertEvent visible in both ``GET /v1/alerts`` and the ops
JSONL stream (and a healthy run stays quiet); with the engine disabled
the daemon's served results and job documents are byte-identical to an
enabled run; ``/v1/alerts`` 404s when alerting is off; ``slo.*`` gauges
appear only when alerting is on; and ``/metrics?format=text`` serves the
OpenMetrics content type on the wire.

Determinism note: services here use a huge ``slo_interval_s`` so the
background thread never ticks mid-test; evaluation happens via explicit
``tick()`` calls (and the final synchronous tick in ``stop()``), so no
test depends on timer scheduling.
"""

import io
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core import clear_cache, set_disk_cache
from repro.obsd import SloSpec
from repro.service import HissService, ServiceClient
from repro.service.obs import OpsLog, ops_document
from repro.telemetry.export import METRICS_TEXT_CONTENT_TYPE

#: Small but parallelizable: fig4 --quick at 1 ms plans 8 unique runs.
SPEC_ARGS = dict(experiments=["fig4"], quick=True, horizon_ms=1.0)

#: A guaranteed "tail regression" without any fault injection: the
#: ``service.job.e2e_s`` bucket holding 2 ms spans (1.5, 2.25] ms, and a
#: cold fig4 --quick serve (planning plus 8 simulated runs) takes far
#: longer on any host, so its e2e counts wholly as bad.  The loose spec is
#: one no real serve can breach.
TIGHT = SloSpec(name="e2e-tight", kind="latency", metric="e2e_s",
                percentile=99, threshold_s=0.002)
LOOSE = SloSpec(name="e2e-loose", kind="latency", metric="e2e_s",
                percentile=99, threshold_s=600.0)


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    set_disk_cache(None)
    yield
    clear_cache()
    set_disk_cache(None)


def _serve(**kwargs):
    kwargs.setdefault("qos_threshold", 10.0)
    kwargs.setdefault("slo_interval_s", 3600.0)
    return HissService(port=0, **kwargs)


def _client(svc):
    """A client of ``svc``; close it (a ``with`` block) when done."""
    return ServiceClient(svc.url, timeout_s=30)


def _run_one_job(client):
    body = client.submit(**SPEC_ARGS)
    doc = client.wait(body["job"]["id"], timeout_s=120)
    assert doc["state"] == "done"
    return body


def _http(url):
    request = urllib.request.Request(url)
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, dict(response.headers), response.read()


class TestBurnRateAlerting:
    def test_injected_tail_regression_raises_an_alert(self):
        stream = io.StringIO()
        with _serve(slos=[TIGHT], ops_log=OpsLog(stream)) as svc, _client(svc) as client:
            _run_one_job(client)
            svc.slo_engine.tick(time.time(), svc)
            alerts = client.alerts()
            assert alerts["firing"] == ["e2e-tight"]
            row = next(r for r in alerts["evaluations"]
                       if r["name"] == "e2e-tight")
            assert row["windows"]["fast"]["burn"] >= TIGHT.burn_factor
            history = alerts["history"]
            assert history and history[-1]["slo"] == "e2e-tight"
            assert history[-1]["state"] == "firing"
        # The edge-triggered alert also landed in the ops JSONL stream.
        records = [json.loads(l) for l in stream.getvalue().splitlines()]
        alerts_logged = [r for r in records if r["event"] == "slo.alert"]
        assert len(alerts_logged) == 1
        assert alerts_logged[0]["slo"] == "e2e-tight"
        assert alerts_logged[0]["severity"] == TIGHT.severity

    def test_healthy_run_stays_quiet(self):
        stream = io.StringIO()
        with _serve(slos=[LOOSE], ops_log=OpsLog(stream)) as svc, _client(svc) as client:
            _run_one_job(client)
            svc.slo_engine.tick(time.time(), svc)
            alerts = client.alerts()
            assert alerts["firing"] == []
            assert alerts["history"] == []
        records = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert not [r for r in records if r["event"].startswith("slo.")]

    def test_alert_resolves_when_the_tail_recovers(self):
        with _serve(slos=[TIGHT]) as svc, _client(svc) as client:
            _run_one_job(client)
            svc.slo_engine.tick(time.time(), svc)
            assert client.alerts()["firing"] == ["e2e-tight"]
            # Quiet window: the next ticks see no new e2e observations,
            # so the fast window empties and the rule stops firing.
            now = time.time()
            for offset in (400.0, 800.0):
                svc.slo_engine.tick(now + offset, svc)
            alerts = client.alerts()
            assert alerts["firing"] == []
            states = [row["state"] for row in alerts["history"]]
            assert states == ["firing", "resolved"]

    def test_stop_runs_a_final_synchronous_tick(self):
        stream = io.StringIO()
        with _serve(slos=[TIGHT], ops_log=OpsLog(stream)) as svc, _client(svc) as client:
            _run_one_job(client)
            assert svc.slo_engine.ticks == 0  # interval is huge: no timer tick
        records = [json.loads(l) for l in stream.getvalue().splitlines()]
        # stop() evaluated once on the drained service and saw the breach.
        assert [r["slo"] for r in records if r["event"] == "slo.alert"] == [
            "e2e-tight"
        ]


class TestDisabledIsFree:
    def _served_documents(self, slos):
        clear_cache()
        with _serve(jobs=2, slos=slos) as svc, _client(svc) as client:
            body = _run_one_job(client)
            job_id = body["job"]["id"]
            status_doc = client.status(job_id)
            _status, _headers, result = _http(f"{svc.url}/v1/jobs/{job_id}/result")
            return status_doc, result

    def test_served_bytes_identical_with_and_without_slos(self):
        doc_on, result_on = self._served_documents([TIGHT, LOOSE])
        doc_off, result_off = self._served_documents(None)
        # Result bodies: only elapsed_s is wall-clock bookkeeping.
        results = [json.loads(raw) for raw in (result_on, result_off)]
        for doc in results:
            for row in doc:
                row["elapsed_s"] = 0.0
        assert json.dumps(results[0], sort_keys=True) == json.dumps(
            results[1], sort_keys=True
        )
        # Job documents: identical after dropping per-serve identifiers
        # and wall-clock stamps.
        for doc in (doc_on, doc_off):
            for volatile in ("trace_id", "created_s", "started_s", "finished_s"):
                doc.pop(volatile, None)
        assert doc_on == doc_off

    def test_alerts_endpoint_404s_when_disabled(self):
        with _serve() as svc:
            assert svc.slo_engine is None
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _http(f"{svc.url}/v1/alerts")
            assert excinfo.value.code == 404
            body = json.loads(excinfo.value.read())
            assert body["error"] == "slo-disabled"

    def test_slo_gauges_present_only_when_enabled(self):
        with _serve(slos=[LOOSE]) as svc, _client(svc) as client:
            svc.slo_engine.tick(time.time(), svc)
            gauges = client.metrics()["gauges"]
            assert gauges["slo.specs"] == 1.0
            assert gauges["slo.firing"] == 0.0
            assert "slo.e2e-loose.burn_fast" in gauges
        with _serve() as svc, _client(svc) as client:
            gauges = client.metrics()["gauges"]
            assert not [name for name in gauges if name.startswith("slo.")]

    def test_ops_document_reports_slo_state(self):
        with _serve(slos=[TIGHT]) as svc, _client(svc) as client:
            _run_one_job(client)
            svc.slo_engine.tick(time.time(), svc)
            ops = ops_document(svc)
            assert ops["slo"]["enabled"] is True
            assert ops["slo"]["specs"] == 1
            assert ops["slo"]["firing"] == ["e2e-tight"]
        with _serve() as svc:
            assert ops_document(svc)["slo"] == {"enabled": False}


class TestMetricsContentType:
    def test_text_metrics_serve_openmetrics_content_type(self):
        with _serve() as svc:
            _status, headers, body = _http(f"{svc.url}/metrics?format=text")
            assert headers["Content-Type"] == METRICS_TEXT_CONTENT_TYPE
            assert b"# TYPE" in body
            _status, headers, _body = _http(f"{svc.url}/metrics")
            assert headers["Content-Type"].startswith("application/json")
