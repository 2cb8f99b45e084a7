"""The simulation-as-a-service daemon: HTTP JSON API over the run engine.

``HissService`` wires the pieces — :class:`~repro.service.jobs.JobStore`,
:class:`~repro.service.admission.AdmissionController` (+ optional
:class:`~repro.service.admission.ServiceGovernor`), and the
:class:`~repro.service.scheduler.JobScheduler` — behind a stdlib
``ThreadingHTTPServer``.  Endpoints:

====================================  =========================================
``POST /v1/jobs``                     submit a job (202; 200 if deduplicated;
                                      429 + ``Retry-After`` when admission
                                      refuses; 503 while draining)
``GET /v1/jobs``                      list live jobs (summaries)
``GET /v1/jobs/<id>``                 one job's status document
``GET /v1/jobs/<id>/result``          the CLI-equivalent ``--json`` document
``GET /v1/jobs/<id>/trace``           the job's lifecycle span document
                                      (``?format=chrome`` for a stitched
                                      chrome://tracing export)
``GET /v1/jobs/<id>/profile``         the job's interference-attribution
                                      bundle (submit with ``profile:
                                      true``; render with ``hiss-report``)
``DELETE /v1/jobs/<id>``              evict a terminal job before its TTL
``GET /v1/experiments``               registered experiments (+ plannability)
``GET /v1/ops``                       one-call operational snapshot
                                      (what ``hiss-top`` renders)
``GET /v1/alerts``                    the SLO engine's burn-rate verdicts and
                                      alert history (404 unless ``--slo``)
``GET /v1/postmortems``               stored postmortem bundles + recorder
                                      status (404 unless ``--postmortem-dir``)
``GET /v1/postmortems/<id>``          one full ``hiss.postmortem/1`` bundle
``POST /v1/postmortems/trigger``      capture a bundle now (manual trigger;
                                      rate-limited)
``GET /healthz``                      liveness + drain state
``GET /metrics``                      MetricsRegistry snapshot (JSON, or
                                      OpenMetrics-style text with
                                      ``?format=text``)
====================================  =========================================

Request handling is thread-per-connection, and connections are kept
alive (HTTP/1.1) until the service drains: from then on every reply
carries ``Connection: close``, and ``stop()`` ends the connections that
stay idle, so no handler thread outlives the service.  Everything the
handlers touch is either lock-protected (store, admission, governor,
disk-cache stats) or create-once (the registry).  Submissions plan on
the request thread — milliseconds — so dedupe and rejection happen
*before* any queue state is consumed, the same "refuse early, at the
boundary" shape the paper argues for in the IOMMU's bounded PPR queue.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import urlparse, parse_qs

from collections import OrderedDict

from ..core import experiment as _experiment
from ..core.planner import resolve_jobs
from ..telemetry import (
    METRICS_TEXT_CONTENT_TYPE,
    MetricsRegistry,
    render_metrics_text,
)
from ..telemetry.spans import clean_trace_id, new_trace_id
from .admission import AdmissionController, RejectedJob, ServiceGovernor
from .jobs import DONE, TERMINAL_STATES, BadSpec, JobSpec, JobStore
from .obs import OpsLog, build_stitched_trace, build_trace_document, ops_document
from .scheduler import JobScheduler, dedupe_key_for, plan_spec

__all__ = ["HissService"]

#: HTTP header a client uses to keep one trace id across back-off rounds.
TRACE_HEADER = "X-Hiss-Trace-Id"

#: The reply to a postmortem route when the flight recorder is off.
_POSTMORTEM_DISABLED = {
    "error": "postmortem-disabled",
    "detail": "start the daemon with --postmortem-dir to enable the flight recorder",
}

#: How many rejected traces the back-off ledger remembers (LRU-bounded).
_BACKOFF_TRACES = 256
#: Back-off rounds remembered per trace.
_BACKOFF_ROUNDS_PER_TRACE = 32


class HissService:
    """A long-lived simulation server; also usable in-process (tests, examples).

    ``port=0`` binds an ephemeral port (read it back from ``.port``).
    ``qos_threshold >= 1`` effectively disables backpressure; the queue
    bound always applies.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        queue_limit: int = 16,
        ttl_s: float = 900.0,
        qos_threshold: float = 0.75,
        qos_sample_period_s: float = 0.25,
        qos_window_s: float = 2.0,
        qos_initial_delay_s: float = 0.5,
        qos_max_delay_s: float = 30.0,
        cache_dir: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        verbose: bool = False,
        trace: bool = True,
        ops_log: Optional[OpsLog] = None,
        slos=None,
        slo_interval_s: float = 5.0,
        postmortem_dir: Optional[str] = None,
        postmortem_keep: int = 20,
        flight_triggers=None,
    ):
        if cache_dir:
            _experiment.configure_disk_cache(cache_dir)
        self.verbose = verbose
        #: Capture worker-side in-sim events into job traces.  Lifecycle
        #: spans and the trace endpoint work either way; ``trace=False``
        #: only drops the per-run event streams.
        self.trace_enabled = trace
        self.ops_log = ops_log if ops_log is not None else OpsLog(None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Flight recorder (None = disabled, the default; disabled costs
        #: nothing — no ring, no ops-log tee, no extra routes' state —
        #: and served documents are byte-identical to a build without
        #: the subsystem).
        self.flight = None
        if postmortem_dir:
            from ..obsd import FlightRecorder, PostmortemStore, default_triggers

            self.flight = FlightRecorder(
                store=PostmortemStore(postmortem_dir, keep=postmortem_keep),
                triggers=(
                    flight_triggers if flight_triggers is not None
                    else default_triggers()
                ),
                metrics=self.metrics,
                ops_log=self.ops_log,
                service=self,
            )
            self.ops_log.tee = self.flight.observe
        self.governor = ServiceGovernor(
            threshold=qos_threshold,
            capacity_cores=resolve_jobs(jobs),
            sample_period_s=qos_sample_period_s,
            window_s=qos_window_s,
            initial_delay_s=qos_initial_delay_s,
            max_delay_s=qos_max_delay_s,
        )
        self.admission = AdmissionController(
            queue_limit=queue_limit, governor=self.governor
        )
        self.store = JobStore(ttl_s=ttl_s)
        self.scheduler = JobScheduler(
            store=self.store,
            admission=self.admission,
            metrics=self.metrics,
            jobs=jobs,
            governor=self.governor,
            trace=trace,
            ops_log=self.ops_log,
            flight=self.flight,
        )
        #: SLO engine (None = disabled, the default; disabled costs the
        #: request path nothing — no sampling, no extra routes' state,
        #: and served documents are byte-identical to a build without
        #: the subsystem).
        self.slo_engine = None
        if slos:
            from ..obsd import SloEngine

            self.slo_engine = SloEngine(
                slos, interval_s=slo_interval_s, ops_log=self.ops_log
            )
        #: The one thread behind both (None when both are off).
        self.watcher = None
        if self.slo_engine is not None or self.flight is not None:
            from ..obsd import Watcher

            self.watcher = Watcher(self, self.slo_engine, self.flight)
        #: Rejected-round ledger: trace id -> back-off spans accumulated
        #: before admission succeeds (LRU-bounded, lock-protected).
        self._backoff_lock = threading.Lock()
        self._backoff_rounds: "OrderedDict[str, list]" = OrderedDict()
        self._draining = False
        #: Open client connections, so ``stop()`` can end them; notified
        #: as each one's handler finishes.
        self._connections_changed = threading.Condition()
        self._connections: set = set()
        self._started_s = time.time()
        self._serve_thread: Optional[threading.Thread] = None
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self  # handlers reach back via self.server.service

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HissService":
        if self.watcher is not None:
            # Before the scheduler: a capture the first batch triggers
            # is written as it queues.
            self.watcher.start()
        self.scheduler.start()
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, name="hiss-serve", daemon=True
        )
        self._serve_thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: refuse new jobs, drain in-flight, then close.

        Clients can keep polling job status for the whole drain; only
        submissions see 503.  ``drain=False`` cancels queued jobs instead
        of running them.
        """
        self._draining = True
        self.scheduler.stop(drain=drain)
        if self.watcher is not None:
            # After the drain so the final synchronous SLO tick evaluates
            # everything this service actually served; the capture of an
            # alert edge it raises is written before we close.
            self.watcher.stop()
        self.httpd.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10)
            self._serve_thread = None
        # A kept-alive connection's handler waits for the next request;
        # ending the read side wakes it to a clean end of stream, and a
        # reply still being written goes out whole.  Waiting for every
        # handler to finish means no request is answered after stop().
        with self._connections_changed:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            self._connections_changed.wait_for(
                lambda: not self._connections, timeout=10
            )
        self.httpd.server_close()

    def __enter__(self) -> "HissService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Operations backing the endpoints
    # ------------------------------------------------------------------
    def submit_document(
        self, doc: Any, trace_id: Optional[str] = None
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Serve one submission; returns ``(status, body, extra_headers)``.

        ``trace_id`` is the client's correlation id (the ``X-Hiss-Trace-Id``
        header) — sent back on a 429 retry it stitches every back-off round
        into the eventual job's trace.  Absent or malformed, the server
        mints one; either way the id is echoed in the response body.
        """
        received_s = time.time()
        trace_id = clean_trace_id(trace_id) or new_trace_id()
        if self._draining:
            return 503, {"error": "draining", "detail": "server is shutting down",
                         "trace_id": trace_id}, {}
        from ..experiments.common import REGISTRY

        try:
            spec = JobSpec.from_document(doc, REGISTRY)
        except BadSpec as exc:
            self.metrics.counter("service.jobs.bad_spec").inc()
            self.ops_log.log("job.bad_spec", trace=trace_id, detail=str(exc))
            return 400, {"error": "bad-spec", "detail": str(exc),
                         "trace_id": trace_id}, {}
        run_keys, serial_only = plan_spec(spec)
        plan_elapsed_s = time.time() - received_s
        dedupe_key = dedupe_key_for(spec, run_keys)
        # A job simulates unless every planned run is cached; a profiled
        # job re-simulates its cached runs, and serial-only experiments
        # simulate outside the run cache.
        simulates = spec.profile or bool(serial_only) or not all(
            _experiment.cache_lookup(key) is not None for key in run_keys
        )
        prior_rounds = self._take_backoff_rounds(trace_id)
        try:
            job, deduplicated = self.store.submit(
                spec, dedupe_key, run_keys, serial_only,
                lambda job_id: self.admission.try_admit(job_id, simulates),
                trace_id=trace_id, received_s=received_s,
                plan_elapsed_s=plan_elapsed_s,
                backoff_rounds=prior_rounds,
            )
        except RejectedJob as rejection:
            rejected_s = time.time()
            self.metrics.counter(
                "service.jobs.rejected_" + rejection.reason.replace("-", "_")
            ).inc()
            # Hand the consumed history back, then append this round, so
            # the eventually-admitted job sees every 429 it sat out.
            self._note_backoff_round(
                trace_id, received_s, rejected_s, rejection, prior_rounds
            )
            self.ops_log.log(
                "job.rejected", trace=trace_id, reason=rejection.reason,
                retry_after_s=rejection.retry_after_s,
            )
            body = {
                "error": rejection.reason,
                "detail": str(rejection),
                "retry_after_s": rejection.retry_after_s,
                "trace_id": trace_id,
            }
            headers = {
                "Retry-After": f"{rejection.retry_after_s:.3f}",
                TRACE_HEADER: trace_id,
            }
            return 429, body, headers
        if deduplicated:
            self.metrics.counter("service.jobs.deduplicated").inc()
            self.ops_log.log(
                "job.deduplicated", trace=trace_id, job=job.id,
                job_trace=job.trace_id, submissions=job.submissions,
            )
            return 200, {"deduplicated": True, "trace_id": job.trace_id,
                         "job": job.as_dict()}, {}
        self.metrics.counter("service.jobs.submitted").inc()
        self.metrics.counter("service.runs.planned").inc(len(run_keys))
        self.metrics.histogram(
            "service.submit.plan_s", low=1e-4, high=1e2, growth=1.5
        ).record(plan_elapsed_s)
        self.ops_log.log(
            "job.admitted", trace=trace_id, job=job.id,
            planned_runs=len(run_keys), queue_depth=self.admission.depth(),
            backoff_rounds=len(job.backoff_rounds), plan_s=round(plan_elapsed_s, 6),
        )
        return 202, {"deduplicated": False, "trace_id": trace_id,
                     "job": job.as_dict()}, {}

    def _note_backoff_round(
        self, trace_id: str, received_s: float, rejected_s: float,
        rejection: RejectedJob, prior_rounds: Optional[list] = None,
    ) -> None:
        """Remember one 429 round so the eventual job's trace includes it."""
        round_doc = {
            "received_s": received_s,
            "rejected_s": rejected_s,
            "reason": rejection.reason,
            "retry_after_s": rejection.retry_after_s,
        }
        with self._backoff_lock:
            rounds = self._backoff_rounds.setdefault(trace_id, [])
            self._backoff_rounds.move_to_end(trace_id)
            if prior_rounds:
                rounds[:0] = prior_rounds
            if len(rounds) < _BACKOFF_ROUNDS_PER_TRACE:
                rounds.append(round_doc)
            while len(self._backoff_rounds) > _BACKOFF_TRACES:
                self._backoff_rounds.popitem(last=False)

    def _take_backoff_rounds(self, trace_id: str) -> list:
        with self._backoff_lock:
            return self._backoff_rounds.pop(trace_id, [])

    def health_document(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": time.time() - self._started_s,
            "queue_depth": self.admission.depth(),
            "jobs": self.store.counts(),
        }

    def gauges(self) -> Dict[str, float]:
        """Point-in-time values merged into ``/metrics`` next to counters."""
        gauges: Dict[str, float] = {
            "service.queue.depth": float(self.admission.depth()),
            "service.queue.limit": float(self.admission.queue_limit),
            "service.queue.mean_service_s": self.admission.mean_service_s,
            "service.uptime_s": time.time() - self._started_s,
        }
        for name, value in self.governor.snapshot().items():
            gauges[f"service.qos.{name}"] = value
        for state, count in self.store.counts().items():
            gauges[f"service.jobs.state.{state}"] = float(count)
        disk = _experiment.get_disk_cache()
        if disk is not None:
            hits, misses, stores = disk.stats()
            gauges["service.disk_cache.hits"] = float(hits)
            gauges["service.disk_cache.misses"] = float(misses)
            gauges["service.disk_cache.stores"] = float(stores)
            lookups = hits + misses
            gauges["service.disk_cache.hit_rate"] = (
                hits / lookups if lookups else 0.0
            )
        from ..core.pool import shared_pool_stats
        from ..core.runcache import cost_model

        for name, value in shared_pool_stats().items():
            gauges[f"service.pool.{name}"] = value
        gauges["service.cost_model.observations"] = float(
            cost_model().observations
        )
        gauges["service.trace.enabled"] = float(self.trace_enabled)
        gauges["service.trace.dropped_events"] = float(self.scheduler.trace_dropped)
        if self.slo_engine is not None:
            gauges.update(self.slo_engine.gauges())
        if self.flight is not None:
            gauges.update(self.flight.gauges())
        return gauges

    def metrics_document(self) -> Dict[str, Any]:
        doc = self.metrics.snapshot()
        doc["gauges"] = self.gauges()
        return doc

    def experiments_document(self) -> Dict[str, Any]:
        from ..experiments.common import REGISTRY, UNPLANNABLE
        from ..experiments.run_all import listed_experiments

        return {
            "experiments": [
                {"id": experiment_id, "plannable": experiment_id not in UNPLANNABLE}
                for experiment_id in listed_experiments()
            ],
            "count": len(REGISTRY),
        }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: A response goes out as two writes, headers then body.  With Nagle's
    #: algorithm on, the body waits for the client's delayed ACK of the
    #: headers (~40 ms) on a kept-alive connection; TCP_NODELAY sends it at
    #: once without copying the body into the header buffer.
    disable_nagle_algorithm = True

    @property
    def service(self) -> HissService:
        return self.server.service

    def setup(self) -> None:
        BaseHTTPRequestHandler.setup(self)
        with self.service._connections_changed:
            self.service._connections.add(self.connection)

    def finish(self) -> None:
        try:
            BaseHTTPRequestHandler.finish(self)
        finally:
            with self.service._connections_changed:
                self.service._connections.discard(self.connection)
                self.service._connections_changed.notify_all()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.service.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _guarded(self, route: Callable[[], None]) -> None:
        """Serve one request via ``route``; an exception becomes a JSON 500.

        The reply carries the request's trace id (the client's
        ``X-Hiss-Trace-Id``, else a fresh one), as does the ops log's
        ``http.error`` line, so a failed request is answered instead of
        dropped and can be found afterwards.
        """
        service = self.service
        service.metrics.counter("service.http.requests").inc()
        self.trace_id = clean_trace_id(self.headers.get(TRACE_HEADER)) or new_trace_id()
        try:
            route()
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            service.metrics.counter("service.http.errors").inc()
            service.ops_log.log(
                "http.error", trace=self.trace_id, method=self.command,
                path=self.path, detail=detail,
                traceback=traceback.format_exc(limit=20),
            )
            self._send_json(500, {"error": "internal", "detail": detail})

    def _send_json(
        self,
        status: int,
        body: Any,
        headers: Optional[Dict[str, str]] = None,
        indent: Optional[int] = None,
    ) -> None:
        if status >= 400:
            # Every error reply names its request's trace id, in the body
            # and the header, so a failed call can be found in the ops log.
            body = dict(body)
            body.setdefault("trace_id", self.trace_id)
            headers = dict(headers or {})
            headers.setdefault(TRACE_HEADER, self.trace_id)
        payload = (json.dumps(body, indent=indent) + "\n").encode("utf-8")
        self._send(status, payload, "application/json", headers)

    def _send_text(
        self,
        status: int,
        text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        self._send(status, text.encode("utf-8"), content_type)

    def _send(
        self,
        status: int,
        payload: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.service._draining:
            # Ends this connection after the reply (send_header sees it).
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _read_json_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None
        return json.loads(raw.decode("utf-8"))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._guarded(self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._guarded(self._route_post)

    def do_DELETE(self) -> None:  # noqa: N802
        self._guarded(self._route_delete)

    def _route_get(self) -> None:
        service = self.service
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, service.health_document())
        elif path == "/metrics":
            query = parse_qs(parsed.query)
            if query.get("format", ["json"])[0] == "text":
                self._send_text(
                    200,
                    render_metrics_text(service.metrics, service.gauges()),
                    content_type=METRICS_TEXT_CONTENT_TYPE,
                )
            else:
                self._send_json(200, service.metrics_document())
        elif path == "/v1/alerts":
            if service.slo_engine is None:
                self._send_json(
                    404,
                    {"error": "slo-disabled",
                     "detail": "start the daemon with --slo to enable alerting"},
                )
            else:
                self._send_json(200, service.slo_engine.alerts_document())
        elif service.flight is None and (
            path == "/v1/postmortems" or path.startswith("/v1/postmortems/")
        ):
            self._send_json(404, _POSTMORTEM_DISABLED)
        elif path == "/v1/postmortems":
            self._send_json(
                200,
                {"postmortems": service.flight.store.index(),
                 "status": service.flight.document()},
            )
        elif path.startswith("/v1/postmortems/"):
            pm_id = path[len("/v1/postmortems/"):]
            doc = service.flight.store.load(pm_id)
            if doc is None:
                self._send_json(404, {"error": "unknown-postmortem", "detail": pm_id})
            else:
                self._send_json(200, doc, indent=2)
        elif path == "/v1/experiments":
            self._send_json(200, service.experiments_document())
        elif path == "/v1/ops":
            self._send_json(200, ops_document(service))
        elif path == "/v1/jobs":
            self._send_json(
                200, {"jobs": [job.as_dict() for job in service.store.jobs()]}
            )
        elif path.startswith("/v1/jobs/"):
            self._get_job(path[len("/v1/jobs/"):], parse_qs(parsed.query))
        else:
            self._send_json(404, {"error": "not-found", "detail": path})

    def _get_job(self, rest: str, query: Dict[str, list]) -> None:
        service = self.service
        job_id, _, tail = rest.partition("/")
        job = service.store.get(job_id)
        if job is None:
            self._send_json(404, {"error": "unknown-job", "detail": job_id})
        elif tail == "":
            self._send_json(200, job.as_dict())
        elif tail == "result":
            if job.state != DONE:
                self._send_json(
                    409,
                    {"error": "not-done", "detail": f"job is {job.state}",
                     "job": job.as_dict()},
                )
            else:
                # Exactly the document `hiss-experiments ... --json` writes.
                self._send_json(200, job.results, indent=2)
        elif tail == "trace":
            if query.get("format", ["spans"])[0] == "chrome":
                self._send_json(200, build_stitched_trace(job))
            else:
                self._send_json(200, build_trace_document(job))
        elif tail == "profile":
            if not job.spec.profile:
                self._send_json(
                    409,
                    {"error": "not-profiled",
                     "detail": "job was not submitted with profile: true",
                     "job": job.as_dict()},
                )
            elif job.state != DONE:
                self._send_json(
                    409,
                    {"error": "not-done", "detail": f"job is {job.state}",
                     "job": job.as_dict()},
                )
            else:
                from ..profiling import BUNDLE_SCHEMA

                # Workers finish in pool order; sort for a stable document.
                runs = sorted(
                    job.profiles, key=lambda doc: str(doc.get("run", ""))
                )
                self._send_json(
                    200,
                    {
                        "schema": BUNDLE_SCHEMA,
                        "meta": {
                            "job": job.id,
                            "trace_id": job.trace_id,
                            "spec": job.spec.as_dict(),
                        },
                        "runs": runs,
                    },
                )
        else:
            self._send_json(404, {"error": "not-found", "detail": rest})

    def _route_post(self) -> None:
        service = self.service
        path = urlparse(self.path).path.rstrip("/")
        if path == "/v1/postmortems/trigger":
            self._post_postmortem_trigger()
            return
        if path != "/v1/jobs":
            self._send_json(404, {"error": "not-found", "detail": path})
            return
        try:
            doc = self._read_json_body()
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(400, {"error": "bad-json", "detail": str(exc)})
            return
        status, body, headers = service.submit_document(doc, trace_id=self.trace_id)
        self._send_json(status, body, headers=headers)

    def _post_postmortem_trigger(self) -> None:
        service = self.service
        if service.flight is None:
            self._send_json(404, _POSTMORTEM_DISABLED)
            return
        try:
            body = self._read_json_body() or {}
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(400, {"error": "bad-json", "detail": str(exc)})
            return
        reason = str(body.get("reason") or "operator request")
        jobs = body.get("jobs") or []
        if not isinstance(jobs, list):
            self._send_json(
                400, {"error": "bad-spec", "detail": "'jobs' must be a list"}
            )
            return
        doc = service.flight.trigger_manual(
            reason=reason, jobs=[str(job) for job in jobs]
        )
        if doc is None:
            self._send_json(
                429,
                {"error": "rate-limited",
                 "detail": "manual trigger debounced or over its hourly cap"},
            )
            return
        self._send_json(
            201,
            {"postmortem": {"id": doc["id"],
                            "captured_s": doc["captured_s"],
                            "trigger": doc["trigger"]}},
        )

    def _route_delete(self) -> None:
        service = self.service
        path = urlparse(self.path).path.rstrip("/")
        if not path.startswith("/v1/jobs/"):
            self._send_json(404, {"error": "not-found", "detail": path})
            return
        job_id = path[len("/v1/jobs/"):]
        job = service.store.get(job_id)
        if job is None:
            self._send_json(404, {"error": "unknown-job", "detail": job_id})
        elif job.state not in TERMINAL_STATES:
            self._send_json(
                409, {"error": "not-terminal", "detail": f"job is {job.state}"}
            )
        else:
            service.store.evict(job_id)
            service.metrics.counter("service.jobs.evicted_by_client").inc()
            self._send_json(200, {"evicted": job_id})
