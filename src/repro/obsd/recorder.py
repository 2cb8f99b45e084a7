"""The live flight recorder: ops-stream tee, trigger evaluation, capture.

A :class:`FlightRecorder` sits on the ops log's tee hook: every record
the daemon logs (and, with the log disabled, would have logged) lands in
:meth:`observe`, which appends it to the :class:`~repro.obsd.ring.FlightRing`
and evaluates the trigger predicates against it.  When one fires, a
capture request is queued for the :class:`~repro.obsd.engine.Watcher`
thread — captures read service-wide state (SLO engine, job store,
metrics) and must never run under the locks an emitting subsystem holds
while logging, so the trigger path only enqueues and sets :attr:`wake`.
:meth:`drain` writes what is queued; manual triggers capture on the
calling (HTTP) thread, which holds no subsystem locks, and return the
finished bundle.

The scheduler additionally feeds in-sim diagnostics through
:meth:`note_run` — the tail of each executed run's event stream and, for
profiled runs, the tail of its :class:`~repro.profiling.sampler.SimSampler`
frames — so a bundle's ring shows what the simulator was doing, not just
what the service logged about it.

Everything is clocked by event timestamps (the ``ts`` the ops record
carries, the run's wall window), never by a clock read of this module's
own, so identical event streams produce identical rings and suppression
decisions.
"""

from __future__ import annotations

import threading
import traceback
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

from .bundle import PostmortemStore, blame_top_k, build_postmortem
from .ring import DEFAULT_RING_CAPACITY, FlightRing
from .triggers import (
    KIND_LEDGER_INVARIANT,
    KIND_MANUAL,
    KIND_SLO_ALERT,
    KIND_WORKER_CRASH,
    TriggerSpec,
    TriggerState,
)

__all__ = ["FlightRecorder"]

#: In-sim events kept per run tail entry.
_SIM_TAIL_EVENTS = 16
#: Sampler frames kept per profiled-run tail entry.
_SAMPLER_TAIL_ROWS = 8
#: Implicated jobs attached when the trigger names none (most recent
#: terminal jobs at capture time).
_FALLBACK_JOBS = 3
#: Trailing rollup window carried in a bundle (seconds of event time).
_ROLLUP_WINDOW_S = 300.0


class FlightRecorder:
    """Always-on diagnostics ring + triggered postmortem capture."""

    def __init__(
        self,
        store: Optional[PostmortemStore],
        triggers: Sequence[TriggerSpec] = (),
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        metrics=None,
        ops_log=None,
        service=None,
    ):
        self.ring = FlightRing(ring_capacity)
        self.store = store
        self.metrics = metrics
        self.ops_log = ops_log
        #: The ``HissService`` whose state a bundle captures (None: the
        #: bundle carries the ring and the build only).
        self.service = service
        self.states = [TriggerState(spec) for spec in triggers]
        self._by_kind: Dict[str, List[TriggerState]] = {}
        for state in self.states:
            self._by_kind.setdefault(state.spec.kind, []).append(state)
        #: Reentrant: a capture's own ``postmortem.written`` ops event
        #: tees back into :meth:`observe` on the same thread.
        self._lock = threading.RLock()
        self._queue: Deque[Dict[str, Any]] = deque()
        #: Set whenever a capture is queued (the watcher thread waits on it).
        self.wake = threading.Event()
        #: Held while queued captures are written, so one :meth:`drain`
        #: returning means none is still being written elsewhere.
        self._draining = threading.Lock()
        self._sequence = 0
        self.captured = 0
        self.capture_errors = 0
        self._last_pool_crashes = 0
        self._last: Optional[Dict[str, Any]] = None

    def drain(self) -> None:
        """Write every queued capture on the calling thread."""
        with self._draining:
            while self._queue:
                self._capture(self._queue.popleft())

    # ------------------------------------------------------------------
    # The tee: every ops record lands here
    # ------------------------------------------------------------------
    def observe(self, record: Dict[str, Any]) -> None:
        """Ring-append one ops record and evaluate the trigger predicates."""
        event = record.get("event", "?")
        ts_s = float(record.get("ts", 0.0))
        with self._lock:
            self.ring.append(ts_s, event, record)
            if event.startswith("postmortem."):
                return  # our own capture events never re-trigger
            if event == "slo.alert":
                self._maybe_fire(
                    KIND_SLO_ALERT, ts_s, event,
                    detail=f"slo {record.get('slo', '?')} firing "
                    f"(burn {record.get('burn_fast', 0)}x/{record.get('burn_slow', 0)}x)",
                )
            elif event == "job.done" and self._by_kind.get(KIND_LEDGER_INVARIANT):
                self._check_ledger(ts_s, event, record.get("job"))
            elif event == "batch.executed":
                self._check_pool(ts_s, event)

    def note_invariant_violation(
        self, ts_s: float, detail: str, job_id: Optional[str] = None
    ) -> None:
        """Report a ledger-reconciliation failure found outside the tee."""
        with self._lock:
            self.ring.append(ts_s, "ledger.violation", {"detail": detail})
            self._maybe_fire(
                KIND_LEDGER_INVARIANT, ts_s, "ledger.violation", detail=detail,
                jobs=[job_id] if job_id else [],
            )

    def note_run(self, info: Dict[str, Any], events, profile_doc) -> None:
        """Scheduler hook: ring the tail of one executed run's diagnostics."""
        ts_s = float(info.get("wall_end_s") or 0.0)
        with self._lock:
            tail = {
                "run": info.get("run"),
                "worker_pid": info.get("worker_pid"),
                "wall_start_s": info.get("wall_start_s"),
                "wall_end_s": info.get("wall_end_s"),
                "events_total": len(events) if events is not None else 0,
                "events": list(events[-_SIM_TAIL_EVENTS:]) if events else [],
            }
            self.ring.append(ts_s, "sim.tail", tail)
            samples = (profile_doc or {}).get("samples")
            if isinstance(samples, dict) and samples.get("rows"):
                self.ring.append(
                    ts_s,
                    "sampler.tail",
                    {
                        "run": info.get("run"),
                        "interval_ns": samples.get("interval_ns"),
                        "columns": samples.get("columns"),
                        "rows_total": len(samples["rows"]),
                        "rows": list(samples["rows"][-_SAMPLER_TAIL_ROWS:]),
                    },
                )

    # ------------------------------------------------------------------
    # Trigger evaluation (lock held)
    # ------------------------------------------------------------------
    def _check_pool(self, ts_s: float, event: str) -> None:
        if not self._by_kind.get(KIND_WORKER_CRASH):
            return
        from ..core.pool import shared_pool_stats

        stats = shared_pool_stats()
        crashes = int(stats.get("crashed_workers", 0))
        delta = crashes - self._last_pool_crashes
        self._last_pool_crashes = crashes
        if delta > 0:
            self._maybe_fire(
                KIND_WORKER_CRASH, ts_s, event,
                detail=f"{delta} pool worker(s) crashed "
                f"(lifetime {crashes}, spawned {int(stats.get('spawned_workers', 0))})",
            )

    def _check_ledger(self, ts_s: float, event: str, job_id: Optional[str]) -> None:
        service = self.service
        if service is None or not job_id:
            return
        job = service.store.get(job_id)
        if job is None or not job.profiles:
            return
        from ..profiling import validate_profile

        problems: List[str] = []
        for doc in job.profiles:
            problems.extend(validate_profile(doc))
        if problems:
            self._maybe_fire(
                KIND_LEDGER_INVARIANT, ts_s, event,
                detail=f"job {job_id} attribution reconciliation failed: "
                f"{problems[0]} (+{len(problems) - 1} more)"
                if len(problems) > 1
                else f"job {job_id} attribution reconciliation failed: {problems[0]}",
                jobs=[job_id],
            )

    def _maybe_fire(
        self,
        kind: str,
        ts_s: float,
        event: str,
        detail: str,
        jobs: Optional[List[str]] = None,
    ) -> None:
        for state in self._by_kind.get(kind, ()):
            if not state.should_fire(ts_s):
                continue
            if self.metrics is not None:
                self.metrics.counter("postmortem.triggered").inc()
            self._queue.append(
                {
                    "name": state.spec.name,
                    "kind": kind,
                    "at_s": ts_s,
                    "event": event,
                    "detail": detail,
                    "jobs": list(jobs or []),
                }
            )
            self.wake.set()

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def trigger_manual(
        self,
        reason: str = "operator request",
        jobs: Sequence[str] = (),
        at_s: Optional[float] = None,
    ) -> Optional[Dict[str, Any]]:
        """``POST /v1/postmortems/trigger``: capture now, synchronously.

        ``at_s`` is the request's receive time (the endpoint's one clock
        read); everything below it stays event-clocked.  Returns the
        finished bundle, or None when the manual trigger is debounced/
        rate-limited (or not configured).
        """
        states = self._by_kind.get(KIND_MANUAL, ())
        if not states:
            return None
        state = states[0]
        if at_s is None:
            import time as _time

            at_s = _time.time()
        ts_s = at_s
        with self._lock:
            if not state.should_fire(ts_s):
                return None
            if self.metrics is not None:
                self.metrics.counter("postmortem.triggered").inc()
        request = {
            "name": state.spec.name,
            "kind": KIND_MANUAL,
            "at_s": ts_s,
            "event": "postmortems.trigger",
            "detail": reason,
            "jobs": list(jobs),
        }
        return self._capture(request)

    def _capture(self, trigger: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Build and persist one bundle; never raises into the caller."""
        try:
            return self._capture_inner(trigger)
        except Exception:
            self.capture_errors += 1
            if self.ops_log is not None:
                self.ops_log.log(
                    "postmortem.error",
                    trigger=trigger.get("name"),
                    detail=traceback.format_exc(limit=5),
                )
            return None

    def _capture_inner(self, trigger: Dict[str, Any]) -> Dict[str, Any]:
        service = self.service
        with self._lock:
            sequence = self._sequence
            self._sequence += 1
            ring_doc = self.ring.as_dict()
            trigger_docs = [state.as_dict() for state in self.states]

        jobs_section: List[Dict[str, Any]] = []
        blame_rows: List[Dict[str, Any]] = []
        metrics_doc = alerts_doc = rollup_doc = None
        if service is not None:
            from ..service.obs import build_trace_document

            implicated = []
            for job_id in trigger.get("jobs") or []:
                job = service.store.get(job_id)
                if job is not None:
                    implicated.append(job)
            if not implicated:
                terminal = [
                    job for job in service.store.jobs() if job.finished_s is not None
                ]
                terminal.sort(key=lambda j: j.finished_s, reverse=True)
                implicated = terminal[:_FALLBACK_JOBS]
            profile_docs: List[Dict[str, Any]] = []
            for job in implicated:
                jobs_section.append(build_trace_document(job))
                profile_docs.extend(job.profiles)
            blame_rows = blame_top_k(profile_docs)
            metrics_doc = service.metrics_document()
            engine = getattr(service, "slo_engine", None)
            if engine is not None:
                alerts_doc = engine.alerts_document()
                rollup_doc = engine.rollup_window(_ROLLUP_WINDOW_S)

        document = build_postmortem(
            trigger=trigger,
            captured_s=trigger["at_s"],
            sequence=sequence,
            config=self._config_section(),
            flight_ring=ring_doc,
            metrics=metrics_doc,
            alerts=alerts_doc,
            rollup_window=rollup_doc,
            jobs=jobs_section,
            blame=blame_rows,
            triggers=trigger_docs,
        )
        path = None
        if self.store is not None:
            path = self.store.write(document)
        self.captured += 1
        self._last = {
            "id": document["id"],
            "captured_s": document["captured_s"],
            "trigger": trigger["name"],
            "kind": trigger["kind"],
        }
        if self.ops_log is not None:
            self.ops_log.log(
                "postmortem.written",
                id=document["id"],
                trigger=trigger["name"],
                kind=trigger["kind"],
                detail=trigger.get("detail"),
                path=path,
                jobs=[j.get("job_id") for j in jobs_section],
            )
        return document

    @staticmethod
    def _config_section() -> Dict[str, Any]:
        import json as _json

        import repro
        from ..config import SystemConfig
        from ..core.runcache import code_fingerprint

        config = SystemConfig()
        return {
            "version": repro.__version__,
            "code_fingerprint": code_fingerprint(),
            "schema_digest": config.schema_digest(),
            "label": config.label,
            "system": _json.loads(config.stable_json()),
        }

    # ------------------------------------------------------------------
    # Read side (endpoints, /metrics, hiss-top)
    # ------------------------------------------------------------------
    def gauges(self) -> Dict[str, float]:
        """``postmortem.*`` gauges merged into the service ``/metrics``."""
        with self._lock:
            suppressed = sum(state.suppressed for state in self.states)
            return {
                "postmortem.captured": float(self.captured),
                "postmortem.errors": float(self.capture_errors),
                "postmortem.stored": float(len(self.store)) if self.store else 0.0,
                "postmortem.suppressed": float(suppressed),
                "postmortem.triggers": float(len(self.states)),
                "postmortem.queue_depth": float(len(self._queue)),
                "postmortem.ring_entries": float(len(self.ring)),
                "postmortem.ring_appended": float(self.ring.appended),
                "postmortem.ring_decimations": float(self.ring.decimations),
            }

    def document(self) -> Dict[str, Any]:
        """The ``postmortems`` section of ``GET /v1/ops``."""
        with self._lock:
            return {
                "enabled": True,
                "directory": self.store.directory if self.store else None,
                "keep": self.store.keep if self.store else None,
                "stored": len(self.store) if self.store else 0,
                "captured": self.captured,
                "errors": self.capture_errors,
                "suppressed": sum(state.suppressed for state in self.states),
                "ring": {
                    "entries": len(self.ring),
                    "appended": self.ring.appended,
                    "decimations": self.ring.decimations,
                },
                "triggers": [state.as_dict() for state in self.states],
                "last": dict(self._last) if self._last else None,
            }
