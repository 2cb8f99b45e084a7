"""Warm execution backend: a persistent worker pool for simulation runs.

A fresh process pool per batch would make each drained service batch
(and every CLI invocation) pay worker start-up — interpreter boot, the
import of the whole ``repro`` package, calibration set-up — before a
single run simulated.  That is this project's own version of the
paper's complaint: service machinery stealing time from the work the
request actually asked for.

This module keeps the service machinery *resident*:

* :class:`WorkerPool` — long-lived worker processes, spawned once and
  reused across batches.  Each worker warms up exactly once
  (:func:`_warm_start`: import the simulation stack, touch the workload
  calibration tables) and then serves tasks until it is recycled or the
  pool shuts down, so steady-state batch latency is pure simulation
  time plus one queue hop.
* **Crash isolation** — a worker exception is shipped back as that
  task's failure; a worker that dies outright (segfault, ``os._exit``)
  fails only the task it was running, and the pool respawns a
  replacement so the rest of the batch completes.
* **Recycling** — after ``recycle_after`` tasks a worker exits cleanly
  and is respawned on demand, bounding any slow leak a long daemon
  lifetime could accumulate.
* **Stats** — spawns, recycles, crashes, tasks, and the warm-hit ratio
  (tasks served by a worker that was already resident before the batch
  began) are exported through ``/metrics`` and the prewarm summary.

The pool never touches simulation semantics: workers run the same
:func:`run_task` as the in-process path, results are keyed, and the
caches are filled in the parent — so pooled and in-process results are
byte-for-byte identical regardless of dispatch order.

Dispatch order itself comes from the cost model
(:class:`repro.core.runcache.CostModel`): pending keys are sorted
longest-predicted-first (:func:`order_longest_first`), which bounds a
batch's makespan by its longest run instead of whichever unlucky tail
a hash-ordered dispatch would produce.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from queue import Empty
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import experiment as _experiment
from .runcache import RunKey, run_key_digest

__all__ = [
    "PoolStats",
    "WorkerPool",
    "configure_pool",
    "order_longest_first",
    "run_label",
    "run_task",
    "shared_pool",
    "shared_pool_stats",
    "shutdown_shared_pool",
]

#: Planned worker retirement: after this many tasks a worker exits and is
#: respawned on demand (bounds slow leaks over a daemon's lifetime).
DEFAULT_RECYCLE_AFTER = 256

#: Module defaults, adjustable via :func:`configure_pool` (daemon flags).
_DEFAULTS = {"recycle_after": DEFAULT_RECYCLE_AFTER, "start_method": None}

#: How long the collector waits on the result queue before checking for
#: dead workers (seconds).
_POLL_S = 0.25
#: Consecutive idle polls (all workers ready + idle, tasks still pending)
#: tolerated before the pool declares the remaining tasks lost.  Only a
#: worker that dies in the sliver between dequeueing a task and
#: announcing it can trigger this; it is a backstop, not a timeout.
_STALL_POLLS = 120
#: Consecutive workers dying *before* finishing warm-up tolerated before
#: the pool gives up.  A warm-up death is environmental (broken import,
#: OOM at start) — respawning would loop forever, so fail the batch.
_WARMUP_FAILURE_LIMIT = 3


def default_start_method() -> str:
    """The multiprocessing start method for workers.

    ``fork`` where available (workers inherit the parent's already-warm
    imports for free); ``spawn`` elsewhere.  :func:`configure_pool`
    overrides — the service bench uses ``spawn`` to make the cold-start
    cost it measures explicit.
    """
    if _DEFAULTS["start_method"]:
        return _DEFAULTS["start_method"]
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def configure_pool(
    recycle_after: Optional[int] = None, start_method: Optional[str] = None
) -> None:
    """Set process-wide pool defaults (the daemon's ``--pool-*`` flags)."""
    if recycle_after is not None:
        if recycle_after < 0:
            raise ValueError(f"recycle_after must be >= 0, got {recycle_after}")
        _DEFAULTS["recycle_after"] = recycle_after
    if start_method is not None:
        _DEFAULTS["start_method"] = start_method


def run_label(key: RunKey) -> str:
    """A compact, human-readable name for one run (trace track prefix)."""
    cpu_name, gpu_name, ssr_enabled, config, horizon_ns = key
    parts = [cpu_name or "idle", "x", gpu_name or "nogpu"]
    label = "".join(parts)
    if not ssr_enabled:
        label += "!nossr"
    config_label = config.label
    if config_label != "Default":
        label += f"[{config_label}]"
    return f"{label}@{horizon_ns / 1e6:g}ms"


def order_longest_first(
    keys: Sequence[RunKey], predict: Callable[[RunKey], float]
) -> List[RunKey]:
    """Cost-model dispatch order: predicted-longest first, digest ties.

    Longest-job-first bounds the batch makespan by the longest single run
    (plus one task of slack per worker); the tie-break on the run-key
    digest keeps the order deterministic even before the model has
    observed anything.  That digest leaves out the code fingerprint, so a
    source edit does not reorder the runs (nor a ``--trace`` file's).
    ``predict(key)`` is the cost model's estimate for ``key``.
    """
    return sorted(
        keys, key=lambda key: (-predict(key), run_key_digest(key, fingerprint=""))
    )


# ----------------------------------------------------------------------
# The task a worker runs
# ----------------------------------------------------------------------
def run_task(key: RunKey, trace_capacity: int, profile: bool = False):
    """Simulate one run; returns ``(metrics, info)``.

    ``info`` is the run's side data, trimmed for the trip through the
    pipe: its label (``run``), ``wall_start_s``/``wall_end_s`` and
    ``worker_pid``; ``events`` — ``None`` unless tracing
    (``trace_capacity`` > 0) captured something, else the run's first
    ``trace_capacity`` events, the tracer's own list handed over
    (:meth:`~repro.telemetry.RunTracer.take_events`), not a copy;
    ``events_dropped``, how many events the run
    had past those; the tracer's ``counters`` and ``histograms``; and
    ``profile``, the attribution document with ``profile=True`` (else
    ``None``).  Neither tracing nor profiling changes the metrics.
    """
    tracer = None
    if trace_capacity:
        from ..telemetry import RunTracer

        tracer = RunTracer(trace_capacity)
    profiler = None
    if profile:
        from ..profiling import Profiler

        profiler = Profiler()
    wall_start_s = time.time()
    metrics = _experiment.simulate_run(key, tracer=tracer, profiler=profiler)
    wall_end_s = time.time()
    events, dropped, counters, histograms = None, 0, {}, {}
    if tracer is not None:
        events = tracer.take_events()
        dropped = tracer.dropped
        counters = {name: c.value for name, c in tracer.metrics.counters.items()}
        histograms = tracer.metrics.histograms
    return metrics, {
        "run": run_label(key),
        "wall_start_s": wall_start_s,
        "wall_end_s": wall_end_s,
        "worker_pid": os.getpid(),
        "events": events or None,
        "events_dropped": dropped,
        "counters": counters,
        "histograms": histograms,
        "profile": profiler.take_document() if profiler is not None else None,
    }


def _warm_start() -> None:
    """One-time worker warm-up: pre-import the stack, pre-load calibration.

    Everything :func:`simulate_run` will touch is pulled in here so the
    first task a worker serves pays the same marginal cost as the
    hundredth.  Inherited telemetry/profiling sinks are detached — the
    parent may have an active tracer, but nothing a worker records into
    an inherited ring could ever be read, so recording would be pure
    waste (results never depend on either; that is their contract).
    """
    from .. import config  # noqa: F401
    from ..telemetry import set_active_tracer
    from ..profiling import set_active_collector
    from ..workloads import gpu_app, parsec  # noqa: F401
    from . import system  # noqa: F401

    set_active_tracer(None)
    set_active_collector(None)
    # Touch the calibration path for a real workload pair so their
    # derived tables (steady states, stream specs) are computed before
    # the first task arrives.
    from ..workloads import GPU_APP_NAMES, PARSEC_NAMES

    for name in PARSEC_NAMES[:1]:
        parsec(name)
    for name in GPU_APP_NAMES[:1]:
        gpu_app(name)


def _worker_main(worker_id, inbox, outbox, recycle_after, runner) -> None:
    """Worker loop: warm up once, serve tasks until stopped or recycled."""
    # A forked worker inherits the parent's SIGTERM handler; the daemon's
    # only sets a drain flag, which would make ``terminate()`` (and
    # multiprocessing's exit-time reaping) wait on a worker that never
    # dies.  A worker has nothing to drain: let SIGTERM end it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        _warm_start()
        outbox.put(("ready", worker_id, os.getpid()))
        completed = 0
        while True:
            item = inbox.get()
            if item is None:
                return
            seq = item[0]
            outbox.put(("start", worker_id, seq))
            begin = time.perf_counter()
            try:
                payload = runner(*item[1:])
            except BaseException:
                outbox.put((
                    "error", worker_id, seq,
                    traceback.format_exc(limit=20),
                    time.perf_counter() - begin,
                ))
            else:
                outbox.put((
                    "ok", worker_id, seq, payload, time.perf_counter() - begin
                ))
            completed += 1
            if recycle_after and completed >= recycle_after:
                outbox.put(("recycle", worker_id))
                return
    except KeyboardInterrupt:  # parent is going down; die quietly
        pass


@dataclass
class PoolStats:
    """Lifetime counters of one :class:`WorkerPool` (monotonic)."""

    spawned_workers: int = 0
    recycled_workers: int = 0
    crashed_workers: int = 0
    batches: int = 0
    tasks_dispatched: int = 0
    tasks_completed: int = 0
    tasks_failed: int = 0
    #: Tasks served by a worker already resident before its batch began.
    warm_hits: int = 0

    @property
    def warm_hit_ratio(self) -> float:
        served = self.tasks_completed + self.tasks_failed
        return self.warm_hits / served if served else 0.0

    def document(self, live_workers: int = 0) -> Dict[str, float]:
        return {
            "spawned_workers": float(self.spawned_workers),
            "recycled_workers": float(self.recycled_workers),
            "crashed_workers": float(self.crashed_workers),
            "live_workers": float(live_workers),
            "batches": float(self.batches),
            "tasks_dispatched": float(self.tasks_dispatched),
            "tasks_completed": float(self.tasks_completed),
            "tasks_failed": float(self.tasks_failed),
            "warm_hits": float(self.warm_hits),
            "warm_hit_ratio": self.warm_hit_ratio,
        }


@dataclass
class _WorkerHandle:
    """Parent-side view of one worker process."""

    worker_id: int
    process: Any
    spawn_batch: int
    ready: bool = False
    pid: Optional[int] = None
    #: Task seq currently executing ("start" seen, result not yet).
    current_seq: Optional[int] = None


@dataclass
class TaskResult:
    """One task's outcome, in completion order."""

    index: int
    ok: bool
    payload: Any = None
    elapsed_s: float = 0.0
    error: Optional[str] = None


class WorkerPool:
    """Persistent pool of warm simulation workers (one per daemon/CLI life).

    Tasks are ``(key, trace_capacity, profile)`` tuples
    handed to ``runner`` (default :func:`run_task`) inside the worker.
    ``run_batch`` dispatches a batch and collects every result,
    isolating per-task failures; the pool survives worker crashes and
    plans worker retirement after ``recycle_after`` tasks.

    One batch runs at a time (the planner and the daemon's scheduler both
    already serialize batches); the lock makes that explicit.
    """

    def __init__(
        self,
        max_workers: int,
        recycle_after: Optional[int] = None,
        start_method: Optional[str] = None,
        runner: Callable = run_task,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        self.recycle_after = (
            _DEFAULTS["recycle_after"] if recycle_after is None else recycle_after
        )
        self.start_method = start_method or default_start_method()
        self._runner = runner
        self._ctx = multiprocessing.get_context(self.start_method)
        #: Parent -> workers.  A buffered ``Queue``: the parent's feeder
        #: thread makes dispatch non-blocking, and the parent never dies
        #: mid-put, so the buffering is harmless.
        self._inbox = self._ctx.Queue()
        #: Workers -> parent.  A ``SimpleQueue`` on purpose: its ``put``
        #: writes straight into the pipe (no feeder thread), so a
        #: worker's "start" announcement and finished results are on the
        #: wire *before* the next instruction runs.  A buffered queue
        #: here would lose whatever its feeder had not flushed when a
        #: worker hard-crashes — making the death unattributable and
        #: discarding results that had actually completed.
        self._outbox = self._ctx.SimpleQueue()
        self._workers: Dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0
        self._next_seq = 0
        self._batch_index = 0
        self._batch_lock = threading.Lock()
        self._closed = False
        self._warmup_failures = 0  # consecutive pre-ready deaths
        self.stats = PoolStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self._closed

    @property
    def live_workers(self) -> int:
        return sum(1 for h in self._workers.values() if h.process.is_alive())

    def _spawn_worker(self) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id, self._inbox, self._outbox,
                self.recycle_after, self._runner,
            ),
            name=f"hiss-pool-{worker_id}",
            daemon=True,
        )
        process.start()
        handle = _WorkerHandle(
            worker_id=worker_id, process=process, spawn_batch=self._batch_index
        )
        self._workers[worker_id] = handle
        self.stats.spawned_workers += 1
        return handle

    def ensure_workers(self) -> None:
        """Bring the pool to full strength (idempotent; spawns lazily)."""
        if self._closed:
            raise RuntimeError("pool is shut down")
        for worker_id, handle in list(self._workers.items()):
            if not handle.process.is_alive():
                # Died idle between batches (or recycled): account and drop.
                self.stats.crashed_workers += 1
                del self._workers[worker_id]
        while len(self._workers) < self.max_workers:
            self._spawn_worker()

    def shutdown(self, timeout_s: float = 5.0) -> None:
        """Stop every worker; safe to call twice."""
        with self._batch_lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._workers:
                try:
                    self._inbox.put(None)
                except (OSError, ValueError):
                    break
            deadline = time.time() + timeout_s
            for handle in self._workers.values():
                handle.process.join(timeout=max(0.0, deadline - time.time()))
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
            self._workers.clear()
            for queue in (self._inbox, self._outbox):
                try:
                    queue.close()
                    if hasattr(queue, "join_thread"):  # SimpleQueue has none
                        queue.join_thread()
                except (OSError, ValueError):
                    pass

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run_batch(self, tasks: Sequence[Tuple]) -> List[TaskResult]:
        """Run ``tasks`` on the pool; returns results in completion order.

        A task that raises inside the worker comes back as ``ok=False``
        with the formatted traceback; a task whose worker dies comes back
        as ``ok=False`` with the exit code.  Neither aborts the batch.
        """
        if not tasks:
            return []
        with self._batch_lock:
            if self._closed:
                raise RuntimeError("pool is shut down")
            self._batch_index += 1
            batch = self._batch_index
            self.stats.batches += 1
            self.ensure_workers()
            pending: Dict[int, int] = {}
            for index, task in enumerate(tasks):
                seq = self._next_seq
                self._next_seq += 1
                pending[seq] = index
                self._inbox.put((seq,) + tuple(task))
                self.stats.tasks_dispatched += 1
            results: List[TaskResult] = []
            idle_polls = 0
            while pending:
                try:
                    message = self._recv(_POLL_S)
                except Empty:
                    if self._reap_dead(pending, results):
                        idle_polls = 0
                    elif self._stalled():
                        idle_polls += 1
                        if idle_polls >= _STALL_POLLS:
                            self._fail_lost(pending, results)
                    else:
                        idle_polls = 0
                    continue
                idle_polls = 0
                self._handle_message(message, batch, pending, results)
            return results

    def _recv(self, timeout_s: float):
        """Next worker message, or :class:`queue.Empty` after ``timeout_s``.

        ``SimpleQueue`` has no timed ``get``; the parent is its only
        reader, so polling the underlying pipe first is race-free.
        """
        if not self._outbox._reader.poll(timeout_s):
            raise Empty
        return self._outbox.get()

    def _handle_message(self, message, batch, pending, results) -> None:
        kind = message[0]
        if kind == "ready":
            _, worker_id, pid = message
            self._warmup_failures = 0
            handle = self._workers.get(worker_id)
            if handle is not None:
                handle.ready = True
                handle.pid = pid
        elif kind == "start":
            _, worker_id, seq = message
            handle = self._workers.get(worker_id)
            if handle is not None:
                handle.ready = True
                handle.current_seq = seq
                if handle.spawn_batch < batch:
                    self.stats.warm_hits += 1
        elif kind in ("ok", "error"):
            if kind == "ok":
                _, worker_id, seq, payload, elapsed_s = message
            else:
                _, worker_id, seq, error, elapsed_s = message
            handle = self._workers.get(worker_id)
            if handle is not None:
                handle.current_seq = None
            index = pending.pop(seq, None)
            if index is None:  # stale (task already failed via a reap)
                return
            if kind == "ok":
                self.stats.tasks_completed += 1
                results.append(TaskResult(index, True, payload, elapsed_s))
            else:
                self.stats.tasks_failed += 1
                results.append(
                    TaskResult(index, False, elapsed_s=elapsed_s, error=error)
                )
        elif kind == "recycle":
            _, worker_id = message
            handle = self._workers.pop(worker_id, None)
            if handle is not None:
                handle.process.join(timeout=5.0)
                self.stats.recycled_workers += 1
            if pending:  # keep the batch moving at full strength
                self._spawn_worker()

    def _reap_dead(self, pending, results) -> bool:
        """Fail the in-flight task of any dead worker; respawn. True if any.

        A worker that dies before it ever reported ready failed during
        warm-up; after :data:`_WARMUP_FAILURE_LIMIT` of those in a row the
        environment itself is broken and the pool raises instead of
        respawning into the same wall forever.
        """
        reaped = False
        for worker_id, handle in list(self._workers.items()):
            if handle.process.is_alive():
                continue
            reaped = True
            del self._workers[worker_id]
            self.stats.crashed_workers += 1
            if not handle.ready:
                self._warmup_failures += 1
                if self._warmup_failures >= _WARMUP_FAILURE_LIMIT:
                    raise RuntimeError(
                        f"pool workers died {self._warmup_failures} times in a "
                        f"row during warm-up (last exit code "
                        f"{handle.process.exitcode}); check the worker stderr"
                    )
            seq = handle.current_seq
            if seq is not None and seq in pending:
                index = pending.pop(seq)
                self.stats.tasks_failed += 1
                results.append(TaskResult(
                    index, False,
                    error=(
                        f"worker {worker_id} (pid {handle.pid}) died with exit "
                        f"code {handle.process.exitcode} while running this task"
                    ),
                ))
            if pending:
                self._spawn_worker()
        return reaped

    def _stalled(self) -> bool:
        """All workers warm and idle yet tasks are pending — nothing moving."""
        handles = self._workers.values()
        return bool(handles) and all(
            h.ready and h.current_seq is None and h.process.is_alive()
            for h in handles
        )

    def _fail_lost(self, pending, results) -> None:
        """Backstop: a task vanished (worker died before announcing it)."""
        for seq, index in sorted(pending.items()):
            self.stats.tasks_failed += 1
            results.append(TaskResult(
                index, False,
                error="task lost: its worker died before reporting it",
            ))
        pending.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_document(self) -> Dict[str, float]:
        return self.stats.document(live_workers=self.live_workers)


# ----------------------------------------------------------------------
# The process-wide shared pool (per daemon lifetime / per CLI invocation)
# ----------------------------------------------------------------------
_SHARED: Optional[WorkerPool] = None
_SHARED_LOCK = threading.Lock()


def shared_pool(max_workers: int) -> WorkerPool:
    """The process-wide warm pool, (re)created to match ``max_workers``.

    The daemon and the CLI both funnel through here, so a second batch —
    whatever code path produced it — reuses the workers the first batch
    spawned.  Asking for a different worker count retires the old pool
    and builds a fresh one (the daemon never does; its ``--jobs`` is
    fixed for its lifetime).
    """
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is not None and (
            not _SHARED.alive or _SHARED.max_workers != max_workers
        ):
            _SHARED.shutdown()
            _SHARED = None
        if _SHARED is None:
            _SHARED = WorkerPool(max_workers)
        return _SHARED


def shared_pool_stats() -> Dict[str, float]:
    """The shared pool's stats document (all-zero when no pool exists)."""
    with _SHARED_LOCK:
        if _SHARED is None:
            return PoolStats().document(live_workers=0)
        return _SHARED.stats_document()


def shutdown_shared_pool() -> None:
    """Retire the shared pool (tests, benchmarks, process exit)."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is not None:
            _SHARED.shutdown()
            _SHARED = None


atexit.register(shutdown_shared_pool)
