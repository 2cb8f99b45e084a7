"""Lifecycle spans: wall-clock, trace-ID-correlated request accounting.

The in-sim :class:`~repro.telemetry.tracer.Tracer` answers "where did
*simulated* time go" inside one run.  This module answers the serving
tier's version of the same question — where did *wall-clock* time go
between a client's submission and its result — with the same philosophy
the paper applies to SSR chains: a request that crosses layer boundaries
(HTTP receive → admission → queue → batch → pool worker → render) can
only be managed if every hop is stamped and the stamps share one
correlation key.

* :func:`new_trace_id` mints the correlation key a submission carries
  for its whole life (including across 429 back-off rounds and into
  pool workers).
* :class:`Span` is one named wall-clock interval on that trace —
  parent/child structured, JSON-able, schema-versioned.
* :class:`SpanRecorder` is a bounded, thread-safe collector of spans for
  one trace (drops are counted, never silent).
* :func:`trace_document` / :func:`validate_trace_document` define the
  span-JSON schema the service's ``/v1/jobs/<id>/trace`` endpoint serves
  and CI validates.
* :func:`stitched_chrome_trace` merges a trace document's service spans
  with per-run in-sim event streams into one Chrome-trace timeline:
  service wall-clock on one process track, each simulated run on its
  own, time-aligned at the run's wall-clock start.

Everything is stdlib and imports nothing from the simulation or service
layers, so any layer can stamp spans without cycles.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "SPAN_SCHEMA",
    "Span",
    "SpanRecorder",
    "new_span_id",
    "new_trace_id",
    "stitched_chrome_trace",
    "trace_document",
    "validate_trace_document",
]

#: Version of the span-JSON documents this module reads and writes.
SPAN_SCHEMA = 1

#: Span completion statuses.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_REJECTED = "rejected"


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (correlates a submission end to end)."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh 8-hex-digit span id (unique within one trace)."""
    return uuid.uuid4().hex[:8]


def clean_trace_id(candidate: Any) -> Optional[str]:
    """``candidate`` if it is a usable client-supplied trace id, else None.

    The server accepts a trace id from clients (so back-off rounds of one
    logical submission correlate) but never trusts arbitrary strings into
    logs and documents: lowercase hex, 8..32 chars, or it is discarded.
    """
    if not isinstance(candidate, str):
        return None
    candidate = candidate.strip().lower()
    if not (8 <= len(candidate) <= 32):
        return None
    if any(c not in "0123456789abcdef" for c in candidate):
        return None
    return candidate


@dataclass
class Span:
    """One wall-clock interval on a trace (seconds since the epoch)."""

    name: str
    category: str
    trace_id: str
    span_id: str
    start_s: float
    end_s: Optional[float] = None
    parent_id: Optional[str] = None
    status: str = STATUS_OK
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "category": self.category,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "status": self.status,
        }
        if self.args:
            doc["args"] = dict(self.args)
        return doc


class SpanRecorder:
    """Bounded, thread-safe span collector for one trace.

    Overflow drops the *newest* span (the early lifecycle is the part a
    debugger cannot reconstruct later) and counts it in :attr:`dropped`,
    mirroring the in-sim tracer's never-silent saturation contract.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        capacity: int = 4096,
        clock: Callable[[], float] = time.time,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.trace_id = trace_id or new_trace_id()
        self.capacity = capacity
        self.dropped = 0
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def add(self, span: Span) -> Span:
        """Record an already-built span (e.g. merged back from a worker)."""
        with self._lock:
            if len(self._spans) >= self.capacity:
                self.dropped += 1
            else:
                self._spans.append(span)
        return span

    def record(
        self,
        name: str,
        category: str,
        start_s: float,
        end_s: float,
        parent_id: Optional[str] = None,
        status: str = STATUS_OK,
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Record a completed interval in one call."""
        if end_s < start_s:
            raise ValueError(f"span {name!r}: end {end_s} before start {start_s}")
        return self.add(
            Span(
                name=name,
                category=category,
                trace_id=self.trace_id,
                span_id=new_span_id(),
                start_s=start_s,
                end_s=end_s,
                parent_id=parent_id,
                status=status,
                args=dict(args or {}),
            )
        )

    @contextmanager
    def span(
        self,
        name: str,
        category: str,
        parent_id: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Span]:
        """Context manager timing its body; errors mark the span ``error``."""
        entry = Span(
            name=name,
            category=category,
            trace_id=self.trace_id,
            span_id=new_span_id(),
            start_s=self._clock(),
            parent_id=parent_id,
            args=dict(args or {}),
        )
        try:
            yield entry
        except BaseException:
            entry.status = STATUS_ERROR
            raise
        finally:
            entry.end_s = self._clock()
            self.add(entry)

    def spans(self) -> List[Span]:
        """A snapshot of recorded spans, oldest first."""
        with self._lock:
            return list(self._spans)


def trace_document(
    recorder: SpanRecorder, extra: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Serialize a recorder into the span-JSON document schema."""
    spans = sorted(recorder.spans(), key=lambda s: (s.start_s, s.span_id))
    doc: Dict[str, Any] = {
        "schema": SPAN_SCHEMA,
        "trace_id": recorder.trace_id,
        "spans": [span.as_dict() for span in spans],
        "dropped_spans": recorder.dropped,
    }
    if extra:
        doc.update(extra)
    return doc


_REQUIRED_SPAN_KEYS = (
    "name",
    "category",
    "trace_id",
    "span_id",
    "start_s",
    "end_s",
    "status",
)


def validate_trace_document(doc: Any) -> List[str]:
    """Schema-check a span-JSON document; returns a list of problems.

    An empty list means: versioned schema, a trace id every span agrees
    with, and well-formed non-negative intervals.  Used by the service
    tests, ``hiss trace validate --spans``, and the CI smoke job.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    if doc.get("schema") != SPAN_SCHEMA:
        errors.append(f"unknown schema {doc.get('schema')!r} (expected {SPAN_SCHEMA})")
    trace_id = doc.get("trace_id")
    if clean_trace_id(trace_id) is None:
        errors.append(f"bad trace_id {trace_id!r}")
    spans = doc.get("spans")
    if not isinstance(spans, list):
        return errors + ["missing or non-array 'spans'"]
    seen_ids = set()
    for index, span in enumerate(spans):
        if len(errors) >= 50:
            errors.append("... further errors suppressed")
            break
        where = f"spans[{index}]"
        if not isinstance(span, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in _REQUIRED_SPAN_KEYS:
            if key not in span:
                errors.append(f"{where}: missing key {key!r}")
        if span.get("trace_id") != trace_id:
            errors.append(
                f"{where}: trace_id {span.get('trace_id')!r} != document's"
            )
        start_s, end_s = span.get("start_s"), span.get("end_s")
        if not isinstance(start_s, (int, float)) or start_s < 0:
            errors.append(f"{where}: bad start_s {start_s!r}")
        elif end_s is not None and (
            not isinstance(end_s, (int, float)) or end_s < start_s
        ):
            errors.append(f"{where}: end_s {end_s!r} before start_s {start_s!r}")
        span_id = span.get("span_id")
        if span_id in seen_ids:
            errors.append(f"{where}: duplicate span_id {span_id!r}")
        seen_ids.add(span_id)
        parent = span.get("parent_id")
        if parent is not None and parent not in seen_ids and not any(
            s.get("span_id") == parent for s in spans if isinstance(s, dict)
        ):
            errors.append(f"{where}: parent_id {parent!r} not in document")
    return errors


# ----------------------------------------------------------------------
# Chrome-trace stitching
# ----------------------------------------------------------------------
#: pid of the service wall-clock track in a stitched trace.
SERVICE_PID = 0


def stitched_chrome_trace(
    doc: Dict[str, Any], label: str = "hiss-service"
) -> Dict[str, Any]:
    """One Chrome-trace timeline from a service span document.

    The service's wall-clock spans land on ``pid 0``, one ``tid`` per
    span category.  Each entry of the document's ``sim`` array — a
    simulated run's in-sim event stream plus its wall-clock window —
    becomes its own pid, with simulated time zero aligned to the run's
    wall-clock start, so the whole request reads as one timeline and
    every track's timestamps stay monotonic.

    All timestamps are microseconds relative to the earliest span start
    (Chrome-trace ``ts`` must be small-ish and non-negative).
    """
    spans = doc.get("spans") or []
    sims = doc.get("sim") or []
    starts = [s["start_s"] for s in spans if s.get("start_s") is not None]
    starts += [r["wall_start_s"] for r in sims if r.get("wall_start_s") is not None]
    epoch_s = min(starts) if starts else 0.0

    def wall_us(seconds: float) -> float:
        return (seconds - epoch_s) * 1e6

    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": SERVICE_PID, "tid": 0,
         "args": {"name": f"{label} (trace {doc.get('trace_id')})"}}
    ]
    categories: List[str] = []
    for span in spans:
        if span.get("category") not in categories:
            categories.append(span["category"])
    for tid, category in enumerate(categories):
        events.append(
            {"ph": "M", "name": "thread_name", "pid": SERVICE_PID, "tid": tid,
             "args": {"name": category}}
        )
    for span in sorted(spans, key=lambda s: s.get("start_s", 0.0)):
        if span.get("end_s") is None:
            continue
        args = {"trace_id": span.get("trace_id"), "span_id": span.get("span_id"),
                "status": span.get("status")}
        args.update(span.get("args") or {})
        events.append(
            {
                "ph": "X",
                "name": span["name"],
                "cat": span.get("category", "service"),
                "pid": SERVICE_PID,
                "tid": categories.index(span["category"]),
                "ts": wall_us(span["start_s"]),
                "dur": max(0.0, (span["end_s"] - span["start_s"]) * 1e6),
                "args": args,
            }
        )

    for run_index, run in enumerate(sims):
        pid = run_index + 1
        run_name = run.get("run", f"run {run_index}")
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": f"sim: {run_name}"}}
        )
        offset_us = wall_us(run.get("wall_start_s", epoch_s))
        tids: Dict[str, int] = {}
        run_events = sorted(
            run.get("events") or [], key=lambda e: (str(e.get("track")), e.get("ts_ns", 0.0))
        )
        for event in run_events:
            track = str(event.get("track"))
            if track not in tids:
                tids[track] = len(tids)
                events.append(
                    {"ph": "M", "name": "thread_name", "pid": pid,
                     "tid": tids[track], "args": {"name": track}}
                )
            record: Dict[str, Any] = {
                "ph": event.get("ph", "i"),
                "name": event.get("name", ""),
                "cat": event.get("cat", "sim"),
                "pid": pid,
                "tid": tids[track],
                "ts": offset_us + event.get("ts_ns", 0.0) / 1000.0,
            }
            if record["ph"] == "X":
                record["dur"] = event.get("dur_ns", 0.0) / 1000.0
            elif record["ph"] == "i":
                record["s"] = "t"
            if event.get("args"):
                record["args"] = dict(event["args"])
            elif record["ph"] == "C":
                record["args"] = {"value": 0}
            events.append(record)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.telemetry.spans",
            "trace_id": doc.get("trace_id"),
            "job_id": doc.get("job_id"),
            "epoch_s": epoch_s,
        },
    }
