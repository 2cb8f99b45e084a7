"""Admission control: bounded queueing and QoS backpressure for the daemon.

The paper's diagnosis is that a host which accepts system service
requests without bound lets a guest starve it; its fix (Section VI) is a
bounded request window plus exponential back-off once servicing exceeds
an administrator's share of CPU time.  The serving daemon applies that
medicine to itself:

* :class:`AdmissionController` — the PPR-queue analogue.  A bounded FIFO
  of accepted job ids; overflow is rejected immediately (HTTP 429 with a
  ``Retry-After`` estimated from the queue's recent drain rate), never
  buffered into an unbounded backlog.  Only a job that will simulate
  consults the governor: one served entirely from the run cache adds no
  simulation load, so it is bounded by the queue alone.
* :class:`ServiceGovernor` — the wall-clock analogue of
  :class:`repro.qos.governor.QosGovernor`.  It tracks the EWMA fraction
  of host capacity (worker-cores × wall time) spent simulating; while the
  fraction exceeds the operator's threshold, each admission attempt is
  refused with an exponentially growing ``Retry-After`` (the Figure 11
  loop — 429s double from ``initial_delay_s`` up to ``max_delay_s``, and
  reset the moment the load falls back under threshold).

Both take an injectable clock so tests can drive them deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

__all__ = ["AdmissionController", "RejectedJob", "ServiceGovernor"]


class RejectedJob(Exception):
    """An admission refusal (HTTP 429): why, and when to come back."""

    def __init__(self, reason: str, retry_after_s: float):
        super().__init__(f"{reason}: retry after {retry_after_s:.1f}s")
        self.reason = reason
        self.retry_after_s = retry_after_s


class ServiceGovernor:
    """Exponential back-off on admissions while simulation load is high.

    The scheduler reports simulated core-seconds via :meth:`note_busy`;
    the governor folds them into an EWMA utilization sample per elapsed
    ``sample_period_s`` (lazily, on access — no background thread), just
    as the in-simulator governor's kernel sampler does per window.
    """

    def __init__(
        self,
        threshold: float = 0.75,
        capacity_cores: int = 1,
        sample_period_s: float = 0.25,
        window_s: float = 2.0,
        initial_delay_s: float = 0.5,
        max_delay_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity_cores < 1:
            raise ValueError(f"capacity_cores must be >= 1, got {capacity_cores}")
        if not 0.0 <= threshold:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.threshold = threshold
        self.capacity_cores = capacity_cores
        self.sample_period_s = sample_period_s
        self.window_s = window_s
        self.initial_delay_s = initial_delay_s
        self.max_delay_s = max_delay_s
        self._clock = clock
        self._lock = threading.Lock()
        self._busy_core_s = 0.0
        self._last_sample_s = clock()
        #: Latest EWMA fraction of capacity spent simulating.
        self.fraction = 0.0
        #: Current back-off delay (0 while under threshold).
        self.delay_s = 0.0
        self.throttle_events = 0
        #: Lifetime total of cost-model predictions charged up front.
        self.predicted_core_s = 0.0

    def note_busy(self, core_seconds: float) -> None:
        """Account simulation work (worker-cores × seconds) to the window."""
        if core_seconds < 0:
            raise ValueError(f"negative core_seconds {core_seconds}")
        with self._lock:
            self._busy_core_s += core_seconds

    def note_predicted(self, core_seconds: float) -> None:
        """Charge a batch's cost-model *prediction* before it executes.

        The scheduler calls this the moment a batch is formed, so
        admission starts back-pressuring while the work is still in
        flight instead of one batch later; once the batch finishes, only
        the residual (actual minus predicted, floored at zero) goes
        through :meth:`note_busy`.  An over-prediction therefore charges
        slightly too much for one window — it decays with the EWMA —
        while an under-prediction is corrected exactly.
        """
        if core_seconds < 0:
            raise ValueError(f"negative core_seconds {core_seconds}")
        with self._lock:
            self._busy_core_s += core_seconds
            self.predicted_core_s += core_seconds

    def _resample_locked(self) -> None:
        now = self._clock()
        elapsed = now - self._last_sample_s
        if elapsed < self.sample_period_s:
            return
        sample = self._busy_core_s / (elapsed * self.capacity_cores)
        alpha = min(1.0, elapsed / self.window_s)
        self.fraction = alpha * sample + (1.0 - alpha) * self.fraction
        self._busy_core_s = 0.0
        self._last_sample_s = now

    @property
    def over_threshold(self) -> bool:
        with self._lock:
            self._resample_locked()
            return self.fraction > self.threshold

    def admission_delay_s(self) -> float:
        """Gate one admission attempt: 0 lets it through, >0 is the 429 delay.

        Mirrors :meth:`repro.qos.governor.QosGovernor.gate`: under
        threshold the delay resets and the job proceeds; over threshold
        the delay doubles from ``initial_delay_s`` toward ``max_delay_s``.
        """
        with self._lock:
            self._resample_locked()
            if self.fraction <= self.threshold:
                self.delay_s = 0.0
                return 0.0
            if self.delay_s == 0.0:
                self.delay_s = self.initial_delay_s
            else:
                self.delay_s = min(self.delay_s * 2.0, self.max_delay_s)
            self.throttle_events += 1
            return self.delay_s

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            self._resample_locked()
            return {
                "fraction": self.fraction,
                "threshold": self.threshold,
                "over_threshold": float(self.fraction > self.threshold),
                "delay_s": self.delay_s,
                "throttle_events": float(self.throttle_events),
                "predicted_core_s": self.predicted_core_s,
            }


class AdmissionController:
    """A bounded FIFO of admitted job ids with load-aware retry hints."""

    def __init__(
        self,
        queue_limit: int = 16,
        governor: Optional[ServiceGovernor] = None,
        retry_after_floor_s: float = 0.5,
    ):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.queue_limit = queue_limit
        self.governor = governor
        self.retry_after_floor_s = retry_after_floor_s
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._queue: deque = deque()
        #: EWMA of per-job service time, used to estimate Retry-After.
        self.mean_service_s = 1.0
        self.rejected_queue_full = 0
        self.rejected_backpressure = 0

    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def try_admit(self, job_id: str, simulates: bool = True) -> None:
        """Enqueue ``job_id`` or raise :class:`RejectedJob` (never blocks).

        For a job that ``simulates``, the governor is consulted first —
        when the host is already saturated with simulation work, growing
        even a non-full queue just converts latency into backlog, which is
        the failure mode the paper measures.  A job that simulates nothing
        (every planned run cached) only has to fit in the queue.
        """
        if simulates and self.governor is not None:
            delay_s = self.governor.admission_delay_s()
            if delay_s > 0.0:
                self.rejected_backpressure += 1
                raise RejectedJob("qos-backpressure", delay_s)
        with self._nonempty:
            if len(self._queue) >= self.queue_limit:
                self.rejected_queue_full += 1
                retry = max(
                    self.retry_after_floor_s,
                    len(self._queue) * self.mean_service_s,
                )
                raise RejectedJob("queue-full", retry)
            self._queue.append(job_id)
            self._nonempty.notify()

    def take_batch(
        self, max_items: Optional[int] = None, timeout_s: Optional[float] = None
    ) -> List[str]:
        """Pop every queued id (up to ``max_items``), waiting up to
        ``timeout_s`` for the first one; an empty list means timeout."""
        with self._nonempty:
            if not self._queue:
                self._nonempty.wait(timeout=timeout_s)
            batch: List[str] = []
            while self._queue and (max_items is None or len(batch) < max_items):
                batch.append(self._queue.popleft())
            return batch

    def requeue_front(self, job_ids: List[str]) -> None:
        """Put a taken batch back at the head, original order preserved.

        The scheduler uses this when it was paused between blocking on
        :meth:`take_batch` and actually being allowed to run the batch;
        requeueing may transiently exceed ``queue_limit``, which is fine —
        the bound is an admission bound, not a storage invariant.
        """
        with self._nonempty:
            for job_id in reversed(job_ids):
                self._queue.appendleft(job_id)
            self._nonempty.notify()

    def note_service_time(self, seconds: float) -> None:
        """Fold one job's observed service time into the retry estimate."""
        if seconds < 0:
            return
        with self._lock:
            self.mean_service_s = 0.7 * self.mean_service_s + 0.3 * seconds
