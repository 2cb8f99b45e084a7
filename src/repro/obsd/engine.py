"""What a live daemon runs: the SLO engine and the one watcher thread.

:class:`SloEngine` owns three things the pure layers below it do not:

* a **sampler** — each :meth:`~SloEngine.tick` snapshots the service's
  cumulative counters, stage histograms, and pool statistics into the
  :class:`~repro.obsd.rollup.RollupStore`;
* **edge-triggered alerting** — it re-evaluates the specs after each
  sample and emits one structured event per *transition* (``slo.alert``
  when a rule starts firing, ``slo.resolved`` when it stops) into the
  service's ops JSONL, keeping a bounded in-memory alert history for
  ``GET /v1/alerts``;
* ``slo.*`` **gauges** for ``/metrics`` (per-slo burn rates and firing
  flags).

:class:`Watcher` is the one background thread behind ``--slo`` and
``--postmortem-dir``: it ticks the engine every ``interval_s`` and
writes the postmortem captures the
:class:`~repro.obsd.recorder.FlightRecorder`'s triggers queue, as they
queue.  It is the only place in :mod:`repro.obsd` that reads the wall
clock for a tick, once per tick, and passes it down, so every decision
below this line stays a pure function of sampled state.  With both
disabled (the default) the service has no watcher and pays nothing.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from ..telemetry.metrics import Histogram
from .rollup import DEFAULT_CAPACITY, DEFAULT_INTERVAL_S, RollupStore
from .slo import ALERTS_SCHEMA, AlertEvent, SloSpec, evaluate_slos

__all__ = ["SloEngine", "Watcher"]

#: Alert transitions kept in memory for ``GET /v1/alerts``.
_ALERT_HISTORY = 256


class SloEngine:
    """Periodic rollup sampling + burn-rate evaluation + alert edges."""

    def __init__(
        self,
        specs: Sequence[SloSpec],
        interval_s: float = DEFAULT_INTERVAL_S,
        capacity: int = DEFAULT_CAPACITY,
        ops_log=None,
    ):
        self.specs = tuple(specs)
        self.store = RollupStore(interval_s=interval_s, capacity=capacity)
        self.interval_s = interval_s
        self.ops_log = ops_log
        self.ticks = 0
        #: Rules currently firing (slo name -> the evaluation row).
        self._firing: Dict[str, Dict[str, Any]] = {}
        #: Recent alert transitions, oldest first (bounded).
        self._history: List[AlertEvent] = []
        self._lock = threading.Lock()
        self._last_report: Dict[str, Any] = {
            "schema": ALERTS_SCHEMA,
            "at_s": 0.0,
            "buckets": 0,
            "interval_s": interval_s,
            "decimations": 0,
            "evaluations": [],
            "firing": [],
        }

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    @staticmethod
    def service_state(service) -> Dict[str, Any]:
        """Cumulative counters / gauges / histograms of a ``HissService``.

        Counters merge the metrics registry with the shared pool's
        lifetime statistics (as ``pool.*``), so ratio SLOs can window
        warm-hit counts exactly like job counts.
        """
        from ..core.pool import shared_pool_stats

        snapshot = service.metrics.snapshot()
        counters: Dict[str, int] = dict(snapshot["counters"])
        for name, value in shared_pool_stats().items():
            if name == "warm_hit_ratio":  # derived; windows recompute it
                continue
            counters[f"pool.{name}"] = int(value)
        gauges: Dict[str, float] = {
            "queue.depth": float(service.admission.depth()),
            "jobs.running": float(
                service.store.counts().get("running", 0)
            ),
        }
        histograms: Dict[str, Histogram] = dict(service.metrics.histograms)
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def tick(self, now_s: float, service) -> Dict[str, Any]:
        """One sample + evaluation round; returns the fresh report.

        Deterministic given ``now_s`` and the service's cumulative state —
        the only wall-clock read is the caller's.
        """
        state = self.service_state(service)
        with self._lock:
            self.store.sample(
                now_s,
                counters=state["counters"],
                gauges=state["gauges"],
                histograms=state["histograms"],
            )
            report = evaluate_slos(self.specs, self.store, end_s=now_s)
            self._apply_transitions(report)
            self._last_report = report
            self.ticks += 1
        return report

    def _apply_transitions(self, report: Dict[str, Any]) -> None:
        """Emit one AlertEvent per edge (fired / resolved); lock held."""
        for row in report["evaluations"]:
            name = row["name"]
            was_firing = name in self._firing
            if row["firing"] and not was_firing:
                self._firing[name] = row
                self._record(row, report["at_s"], "firing")
            elif not row["firing"] and was_firing:
                del self._firing[name]
                self._record(row, report["at_s"], "resolved")
            elif row["firing"]:
                self._firing[name] = row  # refresh burn numbers

    def _record(self, row: Dict[str, Any], at_s: float, state: str) -> None:
        fast = row["windows"]["fast"]
        slow = row["windows"]["slow"]
        event = AlertEvent(
            slo=row["name"],
            state=state,
            severity=row["severity"],
            at_s=at_s,
            burn_fast=fast["burn"],
            burn_slow=slow["burn"],
            detail=row["detail"],
            message=(
                f"{row['name']} {state}: burn {fast['burn']:.1f}x/"
                f"{slow['burn']:.1f}x (threshold {row['burn_factor']:g}x)"
            ),
        )
        self._history.append(event)
        del self._history[:-_ALERT_HISTORY]
        if self.ops_log is not None:
            self.ops_log.log(
                "slo.alert" if state == "firing" else "slo.resolved",
                slo=event.slo,
                severity=event.severity,
                burn_fast=round(event.burn_fast, 4),
                burn_slow=round(event.burn_slow, 4),
                detail=event.detail,
            )

    # ------------------------------------------------------------------
    # Read side (endpoints)
    # ------------------------------------------------------------------
    def alerts_document(self) -> Dict[str, Any]:
        """The ``GET /v1/alerts`` body: last report + transition history."""
        with self._lock:
            report = dict(self._last_report)
            report["ticks"] = self.ticks
            report["history"] = [event.as_dict() for event in self._history]
            return report

    def rollup_window(self, seconds: float = 300.0) -> Dict[str, Any]:
        """One merged rollup bucket covering the trailing window.

        Ends at the newest bucket, not the wall clock, so a window taken
        at capture time re-renders identically from a saved postmortem.
        """
        with self._lock:
            if not len(self.store):
                return {}
            return self.store.window(seconds).as_dict()

    def gauges(self) -> Dict[str, float]:
        """``slo.*`` gauges merged into the service's ``/metrics``."""
        with self._lock:
            out: Dict[str, float] = {
                "slo.specs": float(len(self.specs)),
                "slo.firing": float(len(self._firing)),
                "slo.ticks": float(self.ticks),
                "slo.rollup.buckets": float(len(self.store)),
                "slo.rollup.decimations": float(self.store.decimations),
            }
            for row in self._last_report["evaluations"]:
                prefix = f"slo.{row['name']}"
                out[f"{prefix}.burn_fast"] = row["windows"]["fast"]["burn"]
                out[f"{prefix}.burn_slow"] = row["windows"]["slow"]["burn"]
                out[f"{prefix}.firing"] = float(row["firing"])
            return out


class Watcher:
    """One thread: SLO ticks every ``interval_s``, captures as they queue.

    Owned by ``HissService.start``/``stop``.  Either half may be None.
    """

    def __init__(self, service, engine: Optional[SloEngine] = None, recorder=None):
        self.service = service
        self.engine = engine
        self.recorder = recorder
        #: Set when the recorder queues a capture, and by :meth:`stop`.
        self._wake = recorder.wake if recorder is not None else threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="hiss-obsd", daemon=True
            )
            self._thread.start()

    def _loop(self) -> None:
        engine = self.engine
        next_tick = time.monotonic() + engine.interval_s if engine else None
        while True:
            self._wake.wait(
                None if next_tick is None else max(0.0, next_tick - time.monotonic())
            )
            self._wake.clear()
            if self._stop.is_set():
                return
            if next_tick is not None and time.monotonic() >= next_tick:
                try:
                    engine.tick(time.time(), self.service)
                except Exception:  # pragma: no cover - keep the daemon up
                    if engine.ops_log is not None:
                        engine.ops_log.log("slo.tick_error")
                next_tick = time.monotonic() + engine.interval_s
            if self.recorder is not None:
                self.recorder.drain()

    def stop(self) -> None:
        """Retire the thread, tick once more, then write what is queued."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self.engine is not None:
            # One final synchronous tick so short-lived services (tests,
            # drain-and-exit daemons) still evaluate what they served.
            self.engine.tick(time.time(), self.service)
        if self.recorder is not None:
            # After the final tick: an alert edge it raised has queued a
            # capture that must be written before the service closes.
            self.recorder.drain()
