"""Parallel experiment engine: plan, dedupe, and fan out simulation runs.

Reproducing the full paper grid executes dozens of independent,
deterministic ``run_workloads`` simulations.  This module turns that
serial sweep into a three-phase pipeline:

1. **Plan** — run each experiment harness in *planning mode* (see
   :func:`repro.core.experiment.planning`): ``run_workloads`` records the
   run keys it would need and returns placeholders, so planning costs
   milliseconds.  A harness's keys depend only on the harness and its
   grid, so each ``(harness, kwargs)`` is planned once per process and
   later plans reuse its keys.  Keys are deduplicated across experiments
   — most figures share baselines.
2. **Execute** — the unique, not-yet-cached keys are dispatched
   longest-predicted-first (see
   :class:`~repro.core.runcache.CostModel`), in-process at ``jobs == 1``
   or onto the persistent warm worker pool (:mod:`repro.core.pool`).
   Both run the exact same :func:`~repro.core.pool.run_task`, so results
   are bit-for-bit identical regardless of dispatch order; the parent
   stores each result in both cache levels as it arrives.  A key that
   fails — worker exception or worker death — is recorded in
   ``PrewarmReport.failed`` and the rest of the batch completes.
3. **Replay** — the caller runs the experiments normally; every
   ``run_workloads`` call is now a cache hit and the harnesses only do
   table assembly.  A long-lived caller (the service's render step)
   goes through :func:`render_result`, which assembles each
   ``(harness, kwargs)`` grid's result document once per process and
   hands later callers the stored document, so a replay of a grid seen
   before runs no harness.

Every executed run's side data — its wall window, captured events,
tracer metrics and profile — comes back through one ``on_run(key,
info)`` callback.  :func:`prewarm_experiments` uses it to merge each
run's events into the caller's tracer under per-run track names, so one
Chrome trace shows every simulated run side by side.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import experiment as _experiment
from .pool import TaskResult, order_longest_first, run_label, run_task, shared_pool
from .runcache import RunKey, cost_model

#: Events a ``--trace`` run keeps (its first ones; the rest are counted).
WORKER_TRACE_CAPACITY = 200_000

#: Grids whose planned keys are remembered.  Bounded like
#: ``run_key_digest``'s memo: served jobs choose their ``horizon_ms``.
PLAN_MEMO_SIZE = 256

#: ``(harness, kwargs)`` -> its planned keys in stable order, least
#: recently used first.
_PLANNED: "OrderedDict[tuple, Tuple[RunKey, ...]]" = OrderedDict()

#: ``(harness, kwargs)`` -> its assembled result document, least recently
#: used first.  It holds what the run cache held when it was assembled,
#: so :func:`repro.core.experiment.clear_cache` drops it too.
_RENDERED: "OrderedDict[tuple, Dict[str, Any]]" = OrderedDict()


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


def _stable_order(key: RunKey) -> tuple:
    # Sets iterate in a hash-seed-dependent order; sort on a stable
    # rendering so the dispatch order (not the results — those are
    # order-independent) is reproducible too.
    return (key[0] or "", key[1] or "", key[2], key[4], key[3].stable_json())


@lru_cache(maxsize=4096)
def _interned(key: RunKey) -> RunKey:
    """The first planned key equal to ``key``.

    Figures share runs (fig3a and fig3b plan the same SSR pairs); one
    object per run lets every later set, memo and digest lookup of it hit
    by identity instead of comparing configs field by field.
    """
    return key


def _grid_key(harness: Callable, kwargs: Dict[str, Any]) -> tuple:
    """``(harness, kwargs)`` made hashable: both memos' key for one grid.

    It holds the function object, so a harness registered anew is a new
    key and is planned and assembled anew.
    """
    return harness, tuple(sorted(
        (name, tuple(value) if isinstance(value, list) else value)
        for name, value in kwargs.items()
    ))


def _remember(memo: "OrderedDict[tuple, Any]", memo_key: tuple, value: Any) -> None:
    memo[memo_key] = value
    if len(memo) > PLAN_MEMO_SIZE:
        memo.popitem(last=False)


def _planned_keys(harness: Callable, kwargs: Dict[str, Any]) -> Tuple[RunKey, ...]:
    """The keys ``harness(**kwargs)`` runs, planned the first time only.

    A harness that raises is not remembered.
    """
    memo_key = _grid_key(harness, kwargs)
    keys = _PLANNED.get(memo_key)
    if keys is not None:
        _PLANNED.move_to_end(memo_key)
        return keys
    with _experiment.planning() as collected:
        harness(**kwargs)
    keys = tuple(_interned(key) for key in sorted(collected, key=_stable_order))
    _remember(_PLANNED, memo_key, keys)
    return keys


def plan_runs(
    experiment_ids: Sequence[str], kwargs_for: Callable[[str], Dict[str, Any]]
) -> Tuple[List[RunKey], List[str]]:
    """Collect the deduplicated run keys of ``experiment_ids``, in order.

    ``kwargs_for`` maps an experiment id to the keyword arguments it will
    later be run with — planning must see the same grid the real run will.
    Serial-only experiments (``UNPLANNABLE``: those that simulate outside
    ``run_workloads``, e.g. ``table1``) are skipped and reported back.
    Not reentrant (planning mode is process-global): concurrent callers
    serialize around it, as the service's ``_PLAN_LOCK`` does.
    """
    from ..experiments.common import REGISTRY, UNPLANNABLE  # lazy: avoid cycle

    ordered: List[RunKey] = []
    seen = set()
    skipped: List[str] = []
    for experiment_id in experiment_ids:
        if experiment_id in UNPLANNABLE:
            skipped.append(experiment_id)
            continue
        for key in _planned_keys(REGISTRY[experiment_id], kwargs_for(experiment_id)):
            if key not in seen:
                seen.add(key)
                ordered.append(key)
    return ordered, skipped


def render_result(experiment_id: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """One experiment's result document (``ExperimentResult.as_dict()``).

    The first call for a plannable experiment's grid runs its harness,
    exactly as ``run_experiment`` does, and remembers the document; later
    calls return it with ``elapsed_s`` set to their own wall time.  The
    row lists are shared between callers, read-only.  A harness that
    raises is not remembered, and serial-only experiments (which simulate
    outside the run cache) always run.  Not reentrant: callers serialize
    around it, as the service's ``_PLAN_LOCK`` does.
    """
    from ..experiments.common import REGISTRY, UNPLANNABLE, run_experiment

    if experiment_id in UNPLANNABLE:
        return run_experiment(experiment_id, **kwargs).as_dict()
    start = time.time()
    memo_key = _grid_key(REGISTRY[experiment_id], kwargs)
    document = _RENDERED.get(memo_key)
    if document is not None:
        _RENDERED.move_to_end(memo_key)
        return dict(document, elapsed_s=time.time() - start)
    document = run_experiment(experiment_id, **kwargs).as_dict()
    _remember(_RENDERED, memo_key, document)
    return dict(document)


def _merge_worker_trace(tracer, label: str, events) -> None:
    """Re-emit a worker's events under per-run track names."""
    from ..telemetry.tracer import TraceEvent

    for phase, name, category, track, ts_ns, dur_ns, args in events:
        track_name = f"core {track}" if isinstance(track, int) else str(track)
        tracer.emit(TraceEvent(
            phase, name, category, f"{label} | {track_name}", ts_ns, dur_ns, args
        ))


def _run_in_process(tasks: Sequence[Tuple]):
    """:func:`run_task` each task here, yielding pool-shaped results."""
    for index, task in enumerate(tasks):
        begin = time.perf_counter()
        try:
            payload = run_task(*task)
        except Exception:
            yield TaskResult(index, False, error=traceback.format_exc(limit=20))
            continue
        yield TaskResult(index, True, payload, time.perf_counter() - begin)


def execute_runs(
    keys: Sequence[RunKey],
    jobs: int,
    report: Optional[PrewarmReport] = None,
    trace_capacity: int = 0,
    profile_keys: Optional[set] = None,
    on_run: Optional[Callable[[RunKey, Dict[str, Any]], None]] = None,
) -> PrewarmReport:
    """Simulate ``keys``, filling both cache levels.

    Keys a cache level already holds are skipped; the rest are ordered
    longest-predicted-first by the cost model (the batch estimate lands
    in ``report.predicted_core_s`` before anything executes) and run
    in-process at ``jobs == 1`` (or for a single pending run), on the
    process-wide warm pool otherwise — the identical task tuple through
    the identical :func:`~repro.core.pool.run_task`, so results are
    byte-for-byte the same either way.  A key that raises (or whose
    worker dies) lands in ``report.failed``; the rest still complete.

    ``on_run(key, info)`` receives each executed run's side data as it
    completes (see :func:`~repro.core.pool.run_task`).  A non-zero
    ``trace_capacity`` traces each run and ships back its first
    ``trace_capacity`` events.  Keys in
    ``profile_keys`` are simulated *even when cached* — a profile only
    exists for an executed run.
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
    tasks = [(key, trace_capacity, key in profile_keys) for key in pending]
    pool = None
    if report.workers == 1 or len(tasks) <= 1:
        results = _run_in_process(tasks)
    else:
        pool = shared_pool(report.workers)
        results = pool.run_batch(tasks)
    for result in results:
        key = pending[result.index]
        if not result.ok:
            report.failed.append((key, result.error or "unknown worker failure"))
            continue
        metrics, info = result.payload
        model.observe(key, result.elapsed_s)
        _experiment.cache_store(key, metrics, elapsed_s=result.elapsed_s)
        if on_run is not None:
            on_run(key, info)
        report.executed += 1
    if pool is not None:
        report.pool = pool.stats_document()
    report.execute_s = time.time() - start
    return report


def prewarm_experiments(
    experiment_ids: Sequence[str],
    kwargs_for: Callable[[str], Dict[str, Any]],
    jobs: int,
    tracer=None,
    collector=None,
) -> PrewarmReport:
    """Plan + execute: after this, running the experiments is cache-only.

    With a ``tracer``, each executed run's events land in it under
    per-run track names, and the run's counters, histograms and dropped
    events are added to its metrics and drop count.  With a
    ``collector``, every planned run is executed with attribution
    (cached or not) and its profile document lands in the collector.
    """
    report = PrewarmReport(experiments=list(experiment_ids))
    start = time.time()
    keys, report.unplannable = plan_runs(experiment_ids, kwargs_for)
    report.plan_s = time.time() - start
    report.planned = len(keys)
    tracing = tracer is not None and tracer.enabled

    def on_run(key: RunKey, info: Dict[str, Any]) -> None:
        if tracing:
            if info["events"]:
                _merge_worker_trace(tracer, info["run"], info["events"])
            tracer.metrics.absorb(info["counters"], info["histograms"])
            tracer.dropped += info["events_dropped"]
        if collector is not None and info["profile"]:
            collector.add(info["profile"])

    return execute_runs(
        keys, jobs, report=report,
        trace_capacity=WORKER_TRACE_CAPACITY if tracing else 0,
        profile_keys=set(keys) if collector is not None else None,
        on_run=on_run,
    )
