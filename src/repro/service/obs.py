"""Service observability: job trace documents, ops snapshot, JSONL log.

This is the serving tier's counterpart of :mod:`repro.core.tracing` —
the paper's end-to-end accounting argument applied to the daemon itself.
A job's wall-clock life (HTTP receive → admission, including every 429
back-off round → queue wait → batch assembly → per-run simulation in
pool workers → result render) is reconstructed from the timestamps the
server and scheduler stamp onto the :class:`~repro.service.jobs.Job`,
so the trace has **no gaps at stage boundaries by construction**: each
stage span ends on the exact timestamp the next one starts.

Three deliverables live here:

* :func:`build_trace_document` / :func:`build_stitched_trace` — the span
  JSON served by ``GET /v1/jobs/<id>/trace`` and its Chrome-trace
  (``?format=chrome``) form, with worker-side in-sim spans merged in
  under the job's trace id.
* :func:`ops_document` — the ``GET /v1/ops`` snapshot ``hiss-top``
  renders: queue, governor, workers, cache hit rates, tail latencies,
  tracer saturation, recent jobs.
* :class:`OpsLog` — structured JSONL operational logging (one event per
  job/batch transition, keyed by trace/job ids; ``hiss-serve
  --log-json``), thread-safe and line-buffered so ``tail -f | jq`` works.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Dict, IO, List, Optional

from ..telemetry.spans import (
    SPAN_SCHEMA,
    STATUS_OK,
    STATUS_REJECTED,
    Span,
    stitched_chrome_trace,
)
from .jobs import DONE, FAILED, Job, TERMINAL_STATES

__all__ = [
    "OpsLog",
    "build_stitched_trace",
    "build_trace_document",
    "ops_document",
]


# ----------------------------------------------------------------------
# Structured JSONL operational logging
# ----------------------------------------------------------------------
class OpsLog:
    """One JSON object per line, one line per service transition.

    Disabled (``stream=None``) it costs a single attribute check per
    site — the same zero-overhead contract as the in-sim tracer.  Every
    record carries ``ts`` (epoch seconds) and ``event``; job events add
    ``trace`` and ``job`` so a trace id greps the whole lifecycle:

    ``{"ts": ..., "event": "job.admitted", "trace": "ab12...", "job":
    "job-000001-...", "queue_depth": 3}``

    Path-backed logs can opt into size-based rotation (``max_bytes`` +
    keep-``backups``): when the live file crosses the limit it is renamed
    to ``<path>.1`` (older generations shifting to ``.2``, ``.3``, ...)
    and a fresh file is opened.  The check-and-rename happens under the
    same lock as every write, after a complete line + flush, so neither
    the live file nor any backup ever holds a torn JSON line.

    ``tee`` (when set) receives every record as a dict, *before* the
    write and regardless of whether a stream is attached — it is how the
    flight recorder (:mod:`repro.obsd.recorder`) observes the event stream even
    on daemons that log nowhere.  The tee is called outside the write
    lock (it must be thread-safe on its own) so a slow consumer can
    never hold up rotation, and a rotation can never tear what the tee
    saw: the tee gets whole records, the file gets whole lines.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        path: Optional[str] = None,
        max_bytes: Optional[int] = None,
        backups: int = 3,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if backups < 1:
            raise ValueError(f"backups must be >= 1, got {backups}")
        self.stream = stream
        self.path = path
        self.max_bytes = max_bytes
        self.backups = backups
        #: Observer called with every record dict (None = no observer).
        self.tee = None
        self._lock = threading.Lock()
        self.lines = 0
        self.rotations = 0

    @property
    def enabled(self) -> bool:
        return self.stream is not None

    @classmethod
    def open_path(
        cls,
        path: Optional[str],
        max_bytes: Optional[int] = None,
        backups: int = 3,
    ) -> "OpsLog":
        """An OpsLog writing to ``path`` (``-`` = stderr, None = disabled).

        ``max_bytes`` (path-backed logs only) turns on size-based
        rotation, keeping ``backups`` shifted ``.1``/``.2``/... files.
        """
        if path is None:
            return cls(None)
        if path == "-":
            return cls(sys.stderr)
        return cls(
            open(path, "a", encoding="utf-8"),
            path=path, max_bytes=max_bytes, backups=backups,
        )

    def log(self, event: str, **fields: Any) -> None:
        tee = self.tee
        if self.stream is None and tee is None:
            return
        record: Dict[str, Any] = {"ts": round(time.time(), 6), "event": event}
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        if tee is not None:
            tee(record)
        if self.stream is None:
            return
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self.stream.write(line + "\n")
            self.stream.flush()
            self.lines += 1
            if (
                self.max_bytes is not None
                and self.path is not None
                and self.stream.tell() >= self.max_bytes
            ):
                self._rotate_locked()

    def _rotate_locked(self) -> None:
        """Shift ``path`` -> ``.1`` -> ``.2`` -> ... and reopen (lock held)."""
        self.stream.close()
        for index in range(self.backups - 1, 0, -1):
            older = f"{self.path}.{index}"
            if os.path.exists(older):
                os.replace(older, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self.stream = open(self.path, "a", encoding="utf-8")
        self.rotations += 1

    def close(self) -> None:
        if self.stream is not None and self.stream not in (sys.stderr, sys.stdout):
            self.stream.close()
        self.stream = None


# ----------------------------------------------------------------------
# Job trace documents
# ----------------------------------------------------------------------
def _span(
    trace_id: str,
    span_id: str,
    name: str,
    category: str,
    start_s: Optional[float],
    end_s: Optional[float],
    parent_id: Optional[str] = None,
    status: str = STATUS_OK,
    args: Optional[Dict[str, Any]] = None,
) -> Optional[Dict[str, Any]]:
    """One span dict, or None when its boundary timestamps are missing."""
    if start_s is None or end_s is None or end_s < start_s:
        return None
    return Span(
        name, category, trace_id, span_id, start_s, end_s, parent_id, status,
        args or {},
    ).as_dict()


def build_trace_document(job: Job) -> Dict[str, Any]:
    """The span-JSON document for one job (``GET /v1/jobs/<id>/trace``).

    Stage spans chain on shared timestamps (no boundary gaps); each
    back-off round the client sat out before admission appears as its own
    ``admission.backoff`` span; each run a pool worker simulated on this
    job's behalf appears as a ``sim.run`` span carrying the parent trace
    id, with the worker's in-sim event stream attached under ``sim``.
    """
    trace = job.trace_id
    spans: List[Dict[str, Any]] = []
    root_start = job.received_s or job.created_s
    if job.backoff_rounds:
        root_start = min(
            root_start, min(r["received_s"] for r in job.backoff_rounds)
        )
    root_end = job.finished_s
    root = _span(
        trace, "root", "job", "job", root_start,
        root_end if root_end is not None else root_start,
        status="error" if job.state == FAILED else STATUS_OK,
        args={
            "job_id": job.id,
            "state": job.state,
            "experiments": list(job.spec.experiments),
            "planned_runs": len(job.run_keys),
            "runs_cached": job.runs_cached,
            "runs_executed": job.runs_executed,
            "submissions": job.submissions,
        },
    )
    if root:
        if job.finished_s is None:
            root["end_s"] = None  # still in flight: open root span
            root["duration_s"] = 0.0
        spans.append(root)

    for index, round_doc in enumerate(job.backoff_rounds):
        span = _span(
            trace, f"backoff-{index}", "admission.backoff", "submit",
            round_doc.get("received_s"), round_doc.get("rejected_s"),
            parent_id="root", status=STATUS_REJECTED,
            args={
                "round": index + 1,
                "reason": round_doc.get("reason"),
                "retry_after_s": round_doc.get("retry_after_s"),
            },
        )
        if span:
            spans.append(span)

    admitted_s = job.created_s or None
    submit = _span(
        trace, "submit", "submit", "submit", job.received_s, admitted_s,
        parent_id="root",
        args={"plan_s": job.plan_elapsed_s, "backoff_rounds": len(job.backoff_rounds)},
    )
    if submit:
        spans.append(submit)
    queue = _span(
        trace, "queue", "queue.wait", "queue", admitted_s, job.started_s,
        parent_id="root",
    )
    if queue:
        spans.append(queue)
    batch_end = job.render_start_s if job.render_start_s is not None else job.exec_done_s
    batch = _span(
        trace, "batch", "batch.execute", "batch", job.started_s, batch_end,
        parent_id="root",
        args={
            "runs_cached": job.runs_cached,
            "runs_executed": job.runs_executed,
            "batch_jobs": job.batch_size,
        },
    )
    if batch:
        spans.append(batch)
    render = _span(
        trace, "render", "render", "render", batch_end, job.finished_s,
        parent_id="root",
        status="error" if job.state == FAILED else STATUS_OK,
    )
    if render:
        spans.append(render)

    sim_section: List[Dict[str, Any]] = []
    for run_index, run in enumerate(job.sim_runs):
        span = _span(
            trace, f"sim-{run_index}", f"sim.run {run['run']}", "sim",
            run.get("wall_start_s"), run.get("wall_end_s"),
            parent_id="batch",
            args={
                "run": run.get("run"),
                "worker_pid": run.get("worker_pid"),
                "events": len(run.get("events") or []),
                "events_dropped": run.get("events_dropped", 0),
                "shared_with_traces": [
                    t for t in run.get("trace_ids", []) if t != trace
                ],
            },
        )
        if span:
            spans.append(span)
        sim_section.append(
            {
                "run": run.get("run"),
                "trace_id": trace,
                "parent_span_id": f"sim-{run_index}",
                "wall_start_s": run.get("wall_start_s"),
                "wall_end_s": run.get("wall_end_s"),
                "worker_pid": run.get("worker_pid"),
                "events_dropped": run.get("events_dropped", 0),
                "events": run.get("events") or [],
            }
        )

    spans.sort(key=lambda s: (s["start_s"], s["span_id"]))
    return {
        "schema": SPAN_SCHEMA,
        "trace_id": trace,
        "job_id": job.id,
        "state": job.state,
        "spans": spans,
        "sim": sim_section,
        "dropped_spans": 0,
    }


def build_stitched_trace(job: Job) -> Dict[str, Any]:
    """Chrome-trace form of :func:`build_trace_document` (one timeline)."""
    return stitched_chrome_trace(build_trace_document(job), label=f"hiss {job.id}")


def sim_event_dicts(events) -> List[Dict[str, Any]]:
    """Serialize a run's in-sim :class:`~repro.telemetry.TraceEvent` list
    for a job trace document (plain JSON, ns timestamps preserved).

    An event's ``args`` dict is shared, not copied: nothing mutates it
    once the event is built."""
    served = []
    for phase, name, category, track, ts_ns, dur_ns, args in events:
        doc = {
            "ph": phase, "name": name, "cat": category, "track": track,
            "ts_ns": ts_ns,
        }
        if dur_ns:
            doc["dur_ns"] = dur_ns
        if args:
            doc["args"] = args
        served.append(doc)
    return served


# ----------------------------------------------------------------------
# The /v1/ops snapshot
# ----------------------------------------------------------------------
#: Histogram names the ops snapshot surfaces as tail latencies.
LATENCY_HISTOGRAMS = (
    ("queue_wait_s", "service.job.queue_wait_s"),
    ("sim_s", "service.job.sim_s"),
    ("e2e_s", "service.job.e2e_s"),
)


def ops_document(service, recent: int = 10) -> Dict[str, Any]:
    """Point-in-time operational snapshot of a ``HissService``.

    Everything ``hiss-top`` shows in one GET: designed to be cheap (no
    simulation state is touched, only locks on the store/admission/
    governor) so polling it every second is harmless.
    """
    from ..core import experiment as _experiment
    from ..core.planner import resolve_jobs
    from ..core.pool import shared_pool_stats

    now_s = time.time()
    governor = service.governor.snapshot()
    histograms = service.metrics.histograms
    latency: Dict[str, Any] = {}
    for label, name in LATENCY_HISTOGRAMS:
        histogram = histograms.get(name)
        latency[label] = histogram.summary() if histogram is not None else None

    disk = _experiment.get_disk_cache()
    disk_doc = None
    if disk is not None:
        hits, misses, stores = disk.stats()
        lookups = hits + misses
        disk_doc = {
            "hits": hits,
            "misses": misses,
            "stores": stores,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }
    counters = service.metrics.counters
    executed = counters.get("service.runs.executed")
    cache_hits = counters.get("service.runs.cache_hits")
    runs_failed = counters.get("service.runs.failed")
    executed_n = executed.value if executed else 0
    cache_hits_n = cache_hits.value if cache_hits else 0
    runs_seen = executed_n + cache_hits_n
    # Failed runs ride the pool section: the crash trigger's console
    # cross-check lives next to the crashed-worker counter it confirms.
    pool_doc = dict(shared_pool_stats())
    pool_doc["runs_failed"] = runs_failed.value if runs_failed else 0

    jobs = service.store.jobs()
    recent_jobs = sorted(jobs, key=lambda j: j.created_s, reverse=True)[:recent]

    engine = getattr(service, "slo_engine", None)
    if engine is not None:
        alerts = engine.alerts_document()
        slo_doc: Dict[str, Any] = {
            "enabled": True,
            "specs": len(engine.specs),
            "ticks": alerts.get("ticks", 0),
            "firing": alerts.get("firing", []),
            "history": alerts.get("history", [])[-5:],
        }
    else:
        slo_doc = {"enabled": False}

    flight = getattr(service, "flight", None)
    postmortems_doc = (
        flight.document() if flight is not None else {"enabled": False}
    )

    return {
        "now_s": now_s,
        "uptime_s": now_s - service._started_s,
        "draining": service._draining,
        "queue": {
            "depth": service.admission.depth(),
            "limit": service.admission.queue_limit,
            "mean_service_s": service.admission.mean_service_s,
            "rejected_queue_full": service.admission.rejected_queue_full,
            "rejected_backpressure": service.admission.rejected_backpressure,
        },
        "governor": governor,
        "workers": {
            "configured_jobs": service.scheduler.jobs,
            "resolved_workers": resolve_jobs(service.scheduler.jobs),
            "utilization": governor.get("fraction", 0.0),
        },
        "pool": pool_doc,
        "cache": {
            "memory_runs": len(_experiment._CACHE),
            "run_hit_rate": (cache_hits_n / runs_seen) if runs_seen else 0.0,
            "runs_executed": executed_n,
            "runs_cache_hits": cache_hits_n,
            "disk": disk_doc,
        },
        "trace": {
            "enabled": service.trace_enabled,
            "dropped_events": service.scheduler.trace_dropped,
        },
        "latency": latency,
        "slo": slo_doc,
        "postmortems": postmortems_doc,
        "jobs": {
            "counts": service.store.counts(),
            "recent": [
                {
                    "id": job.id,
                    "trace_id": job.trace_id,
                    "state": job.state,
                    "experiments": list(job.spec.experiments),
                    "planned_runs": len(job.run_keys),
                    "runs_cached": job.runs_cached,
                    "runs_executed": job.runs_executed,
                    "submissions": job.submissions,
                    "e2e_s": (
                        (job.finished_s - job.created_s)
                        if job.finished_s is not None and job.created_s
                        else None
                    ),
                    "age_s": (now_s - job.created_s) if job.created_s else None,
                    "done": job.state in TERMINAL_STATES,
                    "ok": job.state == DONE,
                }
                for job in recent_jobs
            ],
        },
    }
