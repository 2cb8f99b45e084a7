"""Rebuild rollup buckets offline from a captured ops JSONL.

The daemon's ``--log-json`` stream is a complete record of lifecycle
transitions with timestamps, so the same windows the live
:class:`~repro.obsd.engine.SloEngine` samples can be reconstructed after
the fact — ``hiss slo evaluate --ops ops.jsonl`` replays a capture
through the *same* pure evaluation the daemon runs, which is how CI
asserts alerting behavior without a clock in the loop.

Replay is clocked by the events' own ``ts`` fields (never the wall
clock) and events are processed in file order, so a given capture + spec
always produces byte-identical reports.  Reconstruction rules:

========================  ============================================
``job.admitted``          ``service.jobs.submitted`` +1; remembers the
                          admission timestamp for queue-wait derivation
``job.started``           ``service.job.queue_wait_s`` observation
                          (started ts − admitted ts)
``job.done``              ``service.jobs.completed`` +1 and a
                          ``service.job.e2e_s`` observation
``job.failed/cancelled``  failure counters (+ ``e2e_s`` when present)
``job.rejected``          per-reason rejection counters
``job.deduplicated``      ``service.jobs.deduplicated`` +1
``run.executed``          ``service.runs.executed`` +1 and a
                          ``service.job.sim_s`` observation (``wall_s``)
``slo.alert/resolved``    collected into :attr:`ReplayedCapture.alerts`
========================  ============================================

Histograms use the serving tier's stage-latency shape (``low=1e-3,
high=1e4, growth=1.5``) so replayed percentiles are directly comparable
with the live ``/metrics`` ones at bucket resolution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

from ..telemetry.metrics import Histogram
from .rollup import RollupStore

__all__ = ["ReplayedCapture", "replay_ops_log"]

#: Stage-histogram shape (matches ``repro.service.scheduler``).
_HIST_KW = dict(low=1e-3, high=1e4, growth=1.5)

#: Default replay bucket width — finer than the live default so short
#: captures (CI smoke runs last seconds) still span several buckets.
DEFAULT_REPLAY_INTERVAL_S = 1.0


@dataclass
class ReplayedCapture:
    """A rollup store rebuilt from a capture, plus replay bookkeeping."""

    store: RollupStore
    #: Events consumed / skipped (non-JSON or missing ``ts``/``event``).
    events: int = 0
    skipped: int = 0
    #: Per-event-name tallies, e.g. ``{"job.done": 12}``.
    by_event: Dict[str, int] = field(default_factory=dict)
    #: ``slo.alert`` / ``slo.resolved`` records found in the capture
    #: (the live engine's own verdicts, for cross-checking replays).
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    #: First/last event timestamps (None when the capture was empty).
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None

    @property
    def duration_s(self) -> float:
        if self.first_ts is None or self.last_ts is None:
            return 0.0
        return self.last_ts - self.first_ts

    def as_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "skipped": self.skipped,
            "by_event": {k: self.by_event[k] for k in sorted(self.by_event)},
            "alerts": list(self.alerts),
            "first_ts": self.first_ts,
            "last_ts": self.last_ts,
            "duration_s": self.duration_s,
            "buckets": len(self.store),
        }


class _Cumulative:
    """The cumulative state a replay feeds into ``RollupStore.sample``."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = Histogram(name, **_HIST_KW)
            self.histograms[name] = histogram
        histogram.record(value)


def _apply_event(
    record: Dict[str, Any],
    state: _Cumulative,
    admitted: Dict[str, float],
    capture: ReplayedCapture,
) -> None:
    event = record["event"]
    ts = record["ts"]
    job = record.get("job")
    if event == "job.admitted":
        state.inc("service.jobs.submitted")
        state.inc("service.runs.planned", int(record.get("planned_runs") or 0))
        if job:
            admitted[job] = ts
    elif event == "job.started":
        started_from = admitted.pop(job, None) if job else None
        if started_from is not None:
            state.observe("service.job.queue_wait_s", max(0.0, ts - started_from))
    elif event in ("job.done", "job.failed", "job.cancelled"):
        suffix = {"job.done": "completed", "job.failed": "failed",
                  "job.cancelled": "cancelled"}[event]
        state.inc(f"service.jobs.{suffix}")
        e2e_s = record.get("e2e_s")
        if isinstance(e2e_s, (int, float)):
            state.observe("service.job.e2e_s", max(0.0, float(e2e_s)))
        if job:
            admitted.pop(job, None)
    elif event == "job.rejected":
        reason = str(record.get("reason") or "unknown").replace("-", "_")
        state.inc(f"service.jobs.rejected_{reason}")
    elif event == "job.deduplicated":
        state.inc("service.jobs.deduplicated")
    elif event == "job.bad_spec":
        state.inc("service.jobs.bad_spec")
    elif event == "run.executed":
        state.inc("service.runs.executed")
        wall_s = record.get("wall_s")
        if isinstance(wall_s, (int, float)):
            state.observe("service.job.sim_s", max(0.0, float(wall_s)))
    elif event == "batch.executed":
        state.inc("service.batches.executed")
    elif event in ("slo.alert", "slo.resolved"):
        capture.alerts.append(dict(record))


def replay_ops_log(
    source: Union[str, Iterable[str]],
    interval_s: float = DEFAULT_REPLAY_INTERVAL_S,
    capacity: Optional[int] = None,
) -> ReplayedCapture:
    """Replay an ops JSONL into a :class:`RollupStore` (pure, event-clocked).

    ``source`` is a path or an iterable of JSONL lines.  The store is
    sampled on the events' own timestamp grid: whenever an event crosses
    the current bucket's end, the accumulated cumulative state is
    sampled at the boundary, so bucket boundaries depend only on the
    capture's first timestamp and ``interval_s`` — never on the wall
    clock or replay speed.
    """
    from .rollup import DEFAULT_CAPACITY

    store = RollupStore(
        interval_s=interval_s, capacity=capacity or DEFAULT_CAPACITY
    )
    capture = ReplayedCapture(store=store)
    state = _Cumulative()
    admitted: Dict[str, float] = {}
    next_boundary: Optional[float] = None
    last_sampled: Optional[float] = None

    def _records():
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                for line in handle:
                    yield line
        else:
            for line in source:
                yield line

    def _sample(at_s: float) -> None:
        nonlocal last_sampled
        store.sample(
            at_s, counters=state.counters, histograms=state.histograms
        )
        last_sampled = at_s

    for line in _records():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            capture.skipped += 1
            continue
        if not isinstance(record, dict) or "event" not in record:
            capture.skipped += 1
            continue
        ts = record.get("ts")
        if not isinstance(ts, (int, float)):
            capture.skipped += 1
            continue
        ts = float(ts)
        if capture.first_ts is None:
            capture.first_ts = ts
            next_boundary = ts + interval_s
        # Flush buckets the event's timestamp has crossed (events landing
        # exactly on a boundary belong to the bucket ending there); empty
        # buckets are materialised too, so quiet time stays visible.
        while next_boundary is not None and ts > next_boundary:
            _sample(next_boundary)
            next_boundary += store.interval_s
        capture.events += 1
        event = record["event"]
        capture.by_event[event] = capture.by_event.get(event, 0) + 1
        capture.last_ts = ts
        _apply_event(record, state, admitted, capture)

    if capture.last_ts is not None and (
        last_sampled is None or capture.last_ts > last_sampled
    ):
        # Final partial bucket up to the last event.
        _sample(capture.last_ts)
    return capture
