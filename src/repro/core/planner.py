"""Parallel experiment engine: plan, dedupe, and fan out simulation runs.

Reproducing the full paper grid executes dozens of independent,
deterministic ``run_workloads`` simulations.  This module turns that
serial sweep into a three-phase pipeline:

1. **Plan** — run each experiment harness in *planning mode* (see
   :func:`repro.core.experiment.planning`): ``run_workloads`` records the
   run keys it would need and returns placeholders, so planning costs
   milliseconds.  Keys are deduplicated across experiments — most figures
   share baselines.
2. **Execute** — the unique, not-yet-cached keys are dispatched
   longest-predicted-first (see
   :class:`~repro.core.runcache.CostModel`) onto the persistent warm
   worker pool (:mod:`repro.core.pool`).  Workers run the exact same
   :func:`~repro.core.experiment.simulate_run` as the serial path, so
   results are bit-for-bit identical regardless of dispatch order; the
   parent stores each result in both cache levels as it arrives.  A key that fails — worker exception or worker death
   — is recorded in ``PrewarmReport.failed`` and the rest of the batch
   completes.
3. **Replay** — the caller runs the experiments normally; every
   ``run_workloads`` call is now a cache hit and the harnesses only do
   table assembly.

When tracing is enabled, each worker records its run into a private
:class:`~repro.telemetry.Tracer` and ships the events back; the parent
merges them into its tracer under per-run track names, so one Chrome
trace shows every simulated run side by side.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import experiment as _experiment
from .pool import order_longest_first, run_label, run_task, shared_pool
from .runcache import RunKey, cost_model

#: Ring capacity of each worker's private tracer (events per run).
WORKER_TRACE_CAPACITY = 200_000


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``--jobs`` value: 0 means one worker per CPU core."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs if jobs else (os.cpu_count() or 1)


@dataclass
class PrewarmReport:
    """What one plan/execute pass did (the CLI prints this)."""

    experiments: List[str] = field(default_factory=list)
    unplannable: List[str] = field(default_factory=list)
    planned: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    executed: int = 0
    workers: int = 1
    plan_s: float = 0.0
    execute_s: float = 0.0
    #: Keys that did not produce a result, with the worker's traceback
    #: (or death notice).  The rest of the batch still completed.
    failed: List[Tuple[RunKey, str]] = field(default_factory=list)
    #: Cost-model estimate of the batch, summed over pending keys —
    #: reported to the service governor *before* execution.
    predicted_core_s: float = 0.0
    #: Warm-pool stats snapshot taken after the batch (empty when the
    #: batch ran in-process).
    pool: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        total = self.plan_s + self.execute_s
        line = (
            f"planned {self.planned} unique runs for "
            f"{len(self.experiments)} experiment(s): "
            f"{self.memory_hits} in memory, {self.disk_hits} from disk cache, "
            f"{self.executed} executed on {self.workers} worker(s) "
            f"in {total:.1f}s"
        )
        if self.pool:
            line += (
                f" [warm pool: {self.pool['live_workers']:g} live, "
                f"{self.pool['spawned_workers']:g} spawned, "
                f"{self.pool['recycled_workers']:g} recycled, "
                f"warm-hit {100.0 * self.pool['warm_hit_ratio']:.0f}%]"
            )
        if self.failed:
            labels = ", ".join(run_label(key) for key, _tb in self.failed)
            line += f" — {len(self.failed)} FAILED: {labels}"
        if self.unplannable:
            line += f" (run serially: {', '.join(self.unplannable)})"
        return line


def plan_runs(
    experiment_ids: Sequence[str],
    kwargs_for: Callable[[str], Dict[str, Any]],
    registry: Optional[Dict[str, Callable]] = None,
    unplannable: Iterable[str] = (),
) -> Tuple[List[RunKey], List[str]]:
    """Collect the deduplicated run keys of ``experiment_ids``, in order.

    ``kwargs_for`` maps an experiment id to the keyword arguments it will
    later be run with — planning must see the same grid the real run will.
    Experiments in ``unplannable`` (those that simulate outside
    ``run_workloads``, e.g. ``table1``) are skipped and reported back.
    """
    if registry is None:
        from ..experiments.common import REGISTRY as registry  # lazy: avoid cycle
    skip = set(unplannable)
    ordered: List[RunKey] = []
    seen = set()
    skipped: List[str] = []
    for experiment_id in experiment_ids:
        if experiment_id in skip:
            skipped.append(experiment_id)
            continue
        fn = registry[experiment_id]
        with _experiment.planning() as collected:
            fn(**kwargs_for(experiment_id))
        # Sets iterate in a hash-seed-dependent order; sort on a stable
        # rendering so the dispatch order (not the results — those are
        # order-independent) is reproducible too.
        stable = lambda key: (  # noqa: E731
            key[0] or "", key[1] or "", key[2], key[4], key[3].stable_json()
        )
        for key in sorted(collected, key=stable):
            if key not in seen:
                seen.add(key)
                ordered.append(key)
    return ordered, skipped


def _merge_worker_trace(tracer, label: str, events) -> None:
    """Re-emit a worker's events under per-run track names."""
    from ..telemetry.tracer import TraceEvent

    for event in events:
        track = event.track
        track_name = f"core {track}" if isinstance(track, int) else str(track)
        tracer.emit(
            TraceEvent(
                phase=event.phase,
                name=event.name,
                category=event.category,
                track=f"{label} | {track_name}",
                ts_ns=event.ts_ns,
                dur_ns=event.dur_ns,
                args=event.args,
            )
        )


def execute_runs(
    keys: Sequence[RunKey],
    jobs: int,
    tracer=None,
    trace_capacity: int = WORKER_TRACE_CAPACITY,
    report: Optional[PrewarmReport] = None,
    span_context_for: Optional[Callable[[RunKey], Optional[dict]]] = None,
    on_run: Optional[Callable[[RunKey, Optional[list], Optional[dict]], None]] = None,
    profile_keys: Optional[set] = None,
    collector=None,
    events_per_run: Optional[int] = None,
) -> PrewarmReport:
    """Simulate ``keys`` on a worker pool, filling both cache levels.

    Keys already satisfied by a cache level are not dispatched; the rest
    are ordered longest-predicted-first by the cost model (the batch
    makespan is then bounded by the longest run, not an unlucky tail)
    and the batch estimate lands in ``report.predicted_core_s`` before
    anything executes.  With ``jobs == 1`` (or a single pending run) the
    runs execute in-process, which keeps the serial path free of
    multiprocessing machinery; otherwise they go to the process-wide
    warm pool (:func:`~repro.core.pool.shared_pool` — spawned once,
    reused across batches).  Both run the identical
    :func:`~repro.core.pool.run_task`, so results are byte-for-byte the
    same whichever dispatched them.

    A key that raises (or whose worker dies) is appended to
    ``report.failed`` with the traceback and the remaining runs still
    complete — one poisoned run no longer aborts the batch.

    ``span_context_for`` (serving tier) maps a key to trace baggage the
    worker carries across the process boundary and returns stamped with
    its wall-clock window; ``on_run`` receives each executed run's
    ``(key, captured events, stamped context)`` as it completes.
    ``events_per_run`` caps the event stream a worker ships back (the
    overflow is counted, not pickled — the serving tier truncates to its
    per-run budget at the source).

    Keys in ``profile_keys`` are simulated *even when cached* — a profile
    only exists for an executed run — with attribution captured in the
    worker; each resulting run document is added to ``collector`` (a
    :class:`~repro.profiling.ProfileCollector`) when one is given, and is
    always available to ``on_run`` via ``info["profile"]``.
    """
    report = report or PrewarmReport()
    report.workers = resolve_jobs(jobs)
    start = time.time()
    profile_keys = profile_keys or set()
    pending: List[RunKey] = []
    for key in keys:
        if key not in profile_keys:
            if key in _experiment._CACHE:
                report.memory_hits += 1
                continue
            if _experiment.cache_lookup(key) is not None:
                report.disk_hits += 1
                continue
        pending.append(key)

    model = cost_model()
    pending = order_longest_first(pending)
    report.predicted_core_s = sum(model.predict(key) for key in pending)

    capture = trace_capacity if tracer is not None and tracer.enabled else 0

    def context_for(key: RunKey) -> Optional[dict]:
        return span_context_for(key) if span_context_for is not None else None

    def completed(key: RunKey, metrics, events, info, elapsed_s: float) -> None:
        model.observe(key, elapsed_s)
        _experiment.cache_store(key, metrics, elapsed_s=elapsed_s)
        if events:
            _merge_worker_trace(tracer, run_label(key), events)
        if collector is not None and info and info.get("profile"):
            collector.add(info["profile"])
        if on_run is not None:
            on_run(key, events, info)
        report.executed += 1

    def failed(key: RunKey, error: str) -> None:
        report.failed.append((key, error))

    if report.workers == 1 or len(pending) <= 1:
        for key in pending:
            begin = time.perf_counter()
            try:
                metrics, events, info = run_task(
                    key, capture, context_for(key),
                    key in profile_keys, events_per_run,
                )
            except Exception:
                failed(key, traceback.format_exc(limit=20))
                continue
            completed(key, metrics, events, info, time.perf_counter() - begin)
    else:
        pool = shared_pool(report.workers)
        tasks = [
            (key, capture, context_for(key), key in profile_keys, events_per_run)
            for key in pending
        ]
        for result in pool.run_batch(tasks):
            key = pending[result.index]
            if result.ok:
                metrics, events, info = result.payload
                completed(key, metrics, events, info, result.elapsed_s)
            else:
                failed(key, result.error or "unknown worker failure")
        report.pool = pool.stats_document()
    report.execute_s = time.time() - start
    return report


def prewarm_experiments(
    experiment_ids: Sequence[str],
    kwargs_for: Callable[[str], Dict[str, Any]],
    jobs: int,
    tracer=None,
    registry: Optional[Dict[str, Callable]] = None,
    unplannable: Iterable[str] = (),
    collector=None,
) -> PrewarmReport:
    """Plan + execute: after this, running the experiments is cache-only.

    With a ``collector``, every planned run is executed with attribution
    (cached or not) and its profile document lands in the collector.
    """
    report = PrewarmReport(experiments=list(experiment_ids))
    start = time.time()
    keys, skipped = plan_runs(
        experiment_ids, kwargs_for, registry=registry, unplannable=unplannable
    )
    report.plan_s = time.time() - start
    report.planned = len(keys)
    report.unplannable = skipped
    profile_keys = set(keys) if collector is not None else None
    return execute_runs(
        keys, jobs, tracer=tracer, report=report,
        profile_keys=profile_keys, collector=collector,
    )
