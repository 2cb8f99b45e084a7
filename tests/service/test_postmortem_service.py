"""Flight recorder wired into the serving tier.

The ISSUE's acceptance behaviors: an injected SLO tail regression and an
injected worker crash each auto-produce a bundle that validates and is
retrievable over HTTP; the manual trigger endpoint captures on demand;
``/v1/postmortems`` 404s when the recorder is off; and with the recorder
disabled the daemon's served results are byte-identical to an enabled
run (zero-overhead-off).

Determinism note: services here use a huge ``slo_interval_s`` so SLO
evaluation happens only via explicit ``tick()`` calls, and every capture
is awaited with ``flight.drain()`` — no test depends on timer or thread
scheduling.
"""

import io
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import clear_cache, set_disk_cache
from repro.obsd import (
    FlightRecorder,
    PostmortemStore,
    SloSpec,
    TriggerSpec,
    list_bundles,
    validate_postmortem,
)
from repro.service import HissService, ServiceClient
from repro.service.obs import OpsLog, ops_document

SPEC_ARGS = dict(experiments=["fig4"], quick=True, horizon_ms=1.0)

#: No cold fig4 --quick serve finishes in 2.25 ms, the top of the e2e
#: bucket holding 2 ms: a guaranteed breach on any host.
TIGHT = SloSpec(name="e2e-tight", kind="latency", metric="e2e_s",
                percentile=99, threshold_s=0.002)


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    set_disk_cache(None)
    yield
    clear_cache()
    set_disk_cache(None)


def _serve(tmp_path=None, **kwargs):
    kwargs.setdefault("qos_threshold", 10.0)
    kwargs.setdefault("slo_interval_s", 3600.0)
    if tmp_path is not None:
        kwargs.setdefault("postmortem_dir", str(tmp_path / "pm"))
    return HissService(port=0, **kwargs)


def _run_one_job(svc):
    client = ServiceClient(svc.url, timeout_s=30)
    body = client.submit(**SPEC_ARGS)
    doc = client.wait(body["job"]["id"], timeout_s=120)
    assert doc["state"] == "done"
    return client, body


def _http(url):
    request = urllib.request.Request(url)
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, dict(response.headers), response.read()


class TestAutoCapture:
    def test_slo_tail_regression_produces_a_validating_bundle(self, tmp_path):
        stream = io.StringIO()
        with _serve(tmp_path, slos=[TIGHT], ops_log=OpsLog(stream)) as svc:
            client, _body = _run_one_job(svc)
            svc.slo_engine.tick(time.time(), svc)
            svc.flight.drain()
            index = client.postmortems()
            assert len(index["postmortems"]) == 1
            row = index["postmortems"][0]
            assert row["kind"] == "slo_alert"
            assert row["trigger"] == "slo-alert"
            bundle = client.postmortem(row["id"])
            assert validate_postmortem(bundle) == []
            # The bundle carries the alert and the implicated job.
            assert bundle["alerts"]["firing"] == ["e2e-tight"]
            assert bundle["jobs"], "no implicated jobs attached"
            assert bundle["jobs"][0]["spans"]
            assert bundle["rollup_window"]
            kinds = {e["kind"] for e in bundle["flight_ring"]["entries"]}
            assert "sim.tail" in kinds  # scheduler fed run tails in
        records = [json.loads(l) for l in stream.getvalue().splitlines()]
        written = [r for r in records if r["event"] == "postmortem.written"]
        assert len(written) == 1
        assert written[0]["kind"] == "slo_alert"

    def test_worker_crash_produces_a_bundle(self, tmp_path, monkeypatch):
        with _serve(tmp_path) as svc:
            crashes = {"n": 0}
            monkeypatch.setattr(
                "repro.core.pool.shared_pool_stats",
                lambda: {"crashed_workers": crashes["n"], "spawned_workers": 4},
            )
            client = ServiceClient(svc.url, timeout_s=30)
            # Baseline batch: recorder latches crashed_workers == 0.
            svc.flight.observe({"ts": time.time(), "event": "batch.executed"})
            assert client.postmortems()["postmortems"] == []
            # A worker dies; the next batch-end check sees the delta.
            crashes["n"] = 1
            svc.flight.observe({"ts": time.time(), "event": "batch.executed"})
            svc.flight.drain()
            rows = client.postmortems()["postmortems"]
            assert [row["kind"] for row in rows] == ["worker_crash"]
            bundle = client.postmortem(rows[0]["id"])
            assert validate_postmortem(bundle) == []
            assert "1 pool worker(s) crashed" in bundle["trigger"]["detail"]

    def test_alert_storm_is_debounced_to_one_bundle(self, tmp_path):
        with _serve(tmp_path) as svc:
            now = time.time()
            for i in range(5):
                svc.flight.observe(
                    {"ts": now + i, "event": "slo.alert", "slo": "e2e-tight",
                     "burn_fast": 20.0, "burn_slow": 15.0}
                )
            svc.flight.drain()
            rows = ServiceClient(svc.url, timeout_s=30).postmortems()["postmortems"]
            assert len(rows) == 1
            gauges = svc.gauges()
            assert gauges["postmortem.captured"] == 1.0
            assert gauges["postmortem.suppressed"] == 4.0

    def test_each_metric_family_is_exported_once(self, tmp_path):
        """A debounced storm and a traced job that drops events touch every
        postmortem and trace-drop metric; each is one family, a gauge."""
        with _serve(tmp_path) as svc:
            now = time.time()
            for i in range(5):
                svc.flight.observe(
                    {"ts": now + i, "event": "slo.alert", "slo": "e2e-tight",
                     "burn_fast": 20.0, "burn_slow": 15.0}
                )
            svc.flight.drain()
            client = ServiceClient(svc.url, timeout_s=30)
            body = client.submit(["fig4"], quick=True, horizon_ms=5.0)
            assert client.wait(body["job"]["id"], timeout_s=120)["state"] == "done"
            doc = client.metrics()
            text = client.metrics(text=True)
        gauges = doc["gauges"]
        assert gauges["service.trace.dropped_events"] > 0
        assert gauges["postmortem.captured"] >= 1 and gauges["postmortem.suppressed"] >= 1
        declared = [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")]
        assert len(declared) == len(set(declared))
        assert not set(doc["counters"]) & set(gauges)


class TestOneWatcher:
    """SLO ticks and postmortem captures share one background thread."""

    @staticmethod
    def _watcher_threads():
        names = ("hiss-obsd", "hiss-slo", "hiss-flight")
        return {t for t in threading.enumerate() if t.name in names}

    def test_one_thread_per_service_whatever_is_on(self, tmp_path):
        for options in ({"slos": [TIGHT], "postmortem_dir": str(tmp_path / "a")},
                        {"slos": [TIGHT]},
                        {"postmortem_dir": str(tmp_path / "b")}):
            before = self._watcher_threads()
            with _serve(**options) as svc:
                started = self._watcher_threads() - before
                assert [t.name for t in started] == ["hiss-obsd"], options
            assert not any(t.is_alive() for t in started)
            assert svc.watcher is not None
        before = self._watcher_threads()
        with _serve() as svc:
            assert svc.watcher is None
            assert self._watcher_threads() == before

    def test_stop_writes_the_bundle_of_its_final_tick_alert(self, tmp_path):
        stream = io.StringIO()
        with _serve(tmp_path, slos=[TIGHT], ops_log=OpsLog(stream)) as svc:
            _run_one_job(svc)
            assert svc.slo_engine.ticks == 0  # interval is huge: no timer tick
            assert list_bundles(str(tmp_path / "pm")) == []
        # stop() ticked once, the tight objective fired, and the alert's
        # capture was written before stop() returned.
        rows = list_bundles(str(tmp_path / "pm"))
        assert [row["kind"] for row in rows] == ["slo_alert"]
        events = [json.loads(line)["event"] for line in stream.getvalue().splitlines()]
        assert events.index("slo.alert") < events.index("postmortem.written")

    def test_concurrent_captures_are_each_written_and_counted_once(self, tmp_path):
        """The watcher thread and a caller may drain at once while observers
        queue and HTTP threads capture manually: no capture is lost, written
        twice or left uncounted."""
        recorder = FlightRecorder(
            PostmortemStore(str(tmp_path / "pm"), keep=1000),
            triggers=(
                TriggerSpec("slo-alert", "slo_alert", debounce_s=0.0, max_per_hour=1000),
                TriggerSpec("manual", "manual", debounce_s=0.0, max_per_hour=1000),
            ),
        )
        rounds = 20
        # One event time for all: the threads interleave, and a trigger
        # debounces an occurrence whose time runs backwards.
        at_s = 100.0

        def observe():
            for _ in range(rounds):
                recorder.observe({"ts": at_s, "event": "slo.alert"})

        def drain():
            for _ in range(rounds):
                recorder.drain()

        def manual():
            for _ in range(rounds):
                assert recorder.trigger_manual("stress", at_s=at_s)

        threads = [threading.Thread(target=observe) for _ in range(3)]
        threads += [threading.Thread(target=manual) for _ in range(2)]
        threads += [threading.Thread(target=drain) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        recorder.drain()
        captures = 5 * rounds
        assert recorder.capture_errors == 0
        assert recorder.captured == captures
        rows = list_bundles(str(tmp_path / "pm"))
        assert sorted(int(row["id"].split("-")[1]) for row in rows) == list(range(captures))
        assert sorted(row["kind"] for row in rows) == ["manual"] * 40 + ["slo_alert"] * 60


class TestManualTrigger:
    def test_post_captures_on_demand(self, tmp_path):
        with _serve(tmp_path) as svc:
            client = ServiceClient(svc.url, timeout_s=30)
            body = client.trigger_postmortem(reason="drill")
            assert body["postmortem"]["id"] == "pm-000000-manual"
            bundle = client.postmortem(body["postmortem"]["id"])
            assert validate_postmortem(bundle) == []
            assert bundle["trigger"]["detail"] == "drill"

    def test_post_rate_limits_with_429(self, tmp_path):
        triggers = (TriggerSpec("manual", "manual", debounce_s=0.0, max_per_hour=1),)
        with _serve(tmp_path, flight_triggers=triggers) as svc:
            client = ServiceClient(svc.url, timeout_s=30)
            client.trigger_postmortem()
            from repro.service.client import ServiceRejected

            with pytest.raises(ServiceRejected):
                client.trigger_postmortem()

    def test_post_404s_when_disabled(self):
        with _serve() as svc:
            from repro.service.client import ServiceError

            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(svc.url, timeout_s=30).trigger_postmortem()
            assert excinfo.value.status == 404


class TestLedgerInvariant:
    def test_note_invariant_violation_captures(self, tmp_path):
        with _serve(tmp_path) as svc:
            svc.flight.note_invariant_violation(
                time.time(), "service-channel sums diverged by 42ns"
            )
            svc.flight.drain()
            rows = ServiceClient(svc.url, timeout_s=30).postmortems()["postmortems"]
            assert [row["kind"] for row in rows] == ["ledger_invariant"]
            assert "42ns" in rows[0]["detail"]


class TestReadSide:
    def test_endpoints_404_when_disabled(self):
        with _serve() as svc:
            assert svc.flight is None
            for path in ("/v1/postmortems", "/v1/postmortems/pm-000000-manual"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _http(f"{svc.url}{path}")
                assert excinfo.value.code == 404
                assert json.loads(excinfo.value.read())["error"] == (
                    "postmortem-disabled"
                )

    def test_unknown_bundle_404s(self, tmp_path):
        with _serve(tmp_path) as svc:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _http(f"{svc.url}/v1/postmortems/pm-999999-manual")
            assert excinfo.value.code == 404
            assert json.loads(excinfo.value.read())["error"] == "unknown-postmortem"

    def test_gauges_present_only_when_enabled(self, tmp_path):
        with _serve(tmp_path) as svc:
            gauges = ServiceClient(svc.url, timeout_s=30).metrics()["gauges"]
            assert gauges["postmortem.triggers"] == 4.0
            assert gauges["postmortem.captured"] == 0.0
        with _serve() as svc:
            gauges = ServiceClient(svc.url, timeout_s=30).metrics()["gauges"]
            assert not [n for n in gauges if n.startswith("postmortem.")]

    def test_ops_document_reports_flight_state(self, tmp_path):
        with _serve(tmp_path) as svc:
            ServiceClient(svc.url, timeout_s=30).trigger_postmortem()
            ops = ops_document(svc)
            assert ops["postmortems"]["enabled"] is True
            assert ops["postmortems"]["stored"] == 1
            assert ops["postmortems"]["last"]["id"] == "pm-000000-manual"
            assert "runs_failed" in ops["pool"]
        with _serve() as svc:
            assert ops_document(svc)["postmortems"] == {"enabled": False}


class TestDisabledIsFree:
    def _served_results(self, tmp_path=None):
        clear_cache()
        with _serve(tmp_path, jobs=2) as svc:
            client, body = _run_one_job(svc)
            _status, _headers, raw = _http(
                f"{svc.url}/v1/jobs/{body['job']['id']}/result"
            )
            return raw

    def test_results_byte_identical_with_and_without_recorder(self, tmp_path):
        results = []
        for raw in (self._served_results(tmp_path), self._served_results(None)):
            doc = json.loads(raw)
            for row in doc:
                row["elapsed_s"] = 0.0  # wall-clock bookkeeping only
            results.append(json.dumps(doc, sort_keys=True))
        assert results[0] == results[1]
