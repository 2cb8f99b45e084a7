"""The job scheduler: batch queued jobs onto the parallel run engine.

One background thread drains the admission queue in batches.  Each batch
is served exactly the way ``hiss experiments`` serves a CLI invocation:

1. every job was already *planned* at submission time (run keys recorded
   via :func:`repro.core.experiment.planning`), so the batch's union of
   keys is known without simulating;
2. keys no cache level satisfies are fanned out through
   :func:`repro.core.planner.execute_runs` — the same persistent warm
   worker pool (:mod:`repro.core.pool`), the same :func:`simulate_run`,
   so a served result is bit-for-bit the CLI's result, and the second
   batch of a daemon's life spawns zero new processes;
3. each job then *replays* its experiments (all ``run_workloads`` calls
   are now cache hits) to assemble its tables, through
   :func:`repro.core.planner.render_result`: a figure's grid is
   assembled by its harness once, and later jobs of that grid get the
   stored result document.

Batching means ten queued jobs that share baselines — most do — cost one
simulation pass, and a fully warm job completes without simulating at
all.  The cost model's predicted core-seconds are charged to the
:class:`~repro.service.admission.ServiceGovernor` *before* a batch
executes (admission feels the load while it is in flight) and trued up
with the actual residual afterwards.  A run that fails — worker
exception or death — fails only the jobs that planned it; batch
siblings complete.

Planning mode and replay both use the process-global memo/planning state
in :mod:`repro.core.experiment`, which is not reentrant; ``_PLAN_LOCK``
serializes every such section across request threads and the scheduler.
"""

from __future__ import annotations

import hashlib
import threading
import time
import traceback
from typing import Callable, List, Optional, Tuple

from ..core import experiment as _experiment
from ..core.planner import (
    execute_runs,
    plan_runs,
    render_result,
    resolve_jobs,
    run_label,
)
from ..core.runcache import RunKey, run_key_digest
from ..telemetry import MetricsRegistry
from .admission import AdmissionController, ServiceGovernor
from .jobs import CANCELLED, DONE, FAILED, RUNNING, Job, JobStore
from .obs import OpsLog, encode_events

__all__ = ["JobScheduler", "dedupe_key_for", "plan_spec"]

#: Serializes use of the non-reentrant planning/replay machinery.
_PLAN_LOCK = threading.Lock()

#: Events of a run stored into a job: its tracer keeps the run's *first*
#: ones and counts the rest as dropped, without building them.
TRACE_EVENTS_PER_RUN = 4000


def plan_spec(spec) -> Tuple[List[RunKey], List[str]]:
    """Plan a job spec into ``(ordered run keys, serial-only experiments)``.

    A figure seen before with the same grid options costs a memo lookup;
    one seen for the first time runs its harness in planning mode, a few
    milliseconds that never simulate.  Either way the submission path can
    afford it per request — it is what makes RunKey-level dedupe and the
    warm-cache fast path possible before a job is even queued.
    """
    from ..experiments.run_all import experiment_kwargs

    def kwargs_for(experiment_id: str) -> dict:
        return experiment_kwargs(
            experiment_id, quick=spec.quick, horizon_ms=spec.horizon_ms
        )

    with _PLAN_LOCK:
        return plan_runs(spec.experiments, kwargs_for)


def dedupe_key_for(spec, run_keys: List[RunKey]) -> str:
    """Digest identifying a submission's work: spec + planned run keys.

    Folding in :func:`run_key_digest` (which already covers the code
    fingerprint) means the key changes when the simulator does — after a
    reload plus :func:`repro.core.reset_code_fingerprint`, stale twins
    stop matching automatically.
    """
    digest = hashlib.sha256()
    digest.update(spec.canonical_json().encode("utf-8"))
    for key in run_keys:
        digest.update(run_key_digest(key).encode("utf-8"))
    return digest.hexdigest()


class JobScheduler:
    """Background drain loop: admission queue -> parallel engine -> store."""

    def __init__(
        self,
        store: JobStore,
        admission: AdmissionController,
        metrics: MetricsRegistry,
        jobs: int = 1,
        governor: Optional[ServiceGovernor] = None,
        poll_s: float = 0.2,
        clock: Callable[[], float] = time.time,
        trace: bool = True,
        ops_log: Optional[OpsLog] = None,
        flight=None,
    ):
        self.store = store
        self.admission = admission
        self.metrics = metrics
        self.jobs = jobs
        self.governor = governor
        self.poll_s = poll_s
        self._clock = clock
        #: Capture each run's in-sim event stream in the pool workers and
        #: attach it to the jobs that planned the run.  Span/timestamp
        #: bookkeeping happens regardless; this only gates event capture.
        self.trace = trace
        #: In-sim events past a run's ``TRACE_EVENTS_PER_RUN`` (reported,
        #: never silent — see ``service.trace.dropped_events``).
        self.trace_dropped = 0
        self.ops_log = ops_log if ops_log is not None else OpsLog(None)
        #: Flight recorder; when set, each executed run's event tail and
        #: sampler rows land in the diagnostics ring for postmortems.
        self.flight = flight
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._drain = True
        self._paused = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self._thread = threading.Thread(
            target=self._loop, name="hiss-scheduler", daemon=True
        )
        self._thread.start()

    def pause(self) -> None:
        """Stop taking batches (queued jobs wait); used by tests/operators."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def stop(self, drain: bool = True, timeout_s: Optional[float] = None) -> None:
        """Shut the loop down; with ``drain`` finish every queued job first.

        Without ``drain``, still-queued jobs are marked ``cancelled`` so
        no client is left polling a job that will never run.
        """
        self._drain = drain
        self._stopping.set()
        self.resume()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None
        if not drain:
            for job_id in self.admission.take_batch(timeout_s=0):
                self._cancel(job_id)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            if self._paused.is_set() and not self._stopping.is_set():
                time.sleep(0.01)
                continue
            batch = self.admission.take_batch(timeout_s=self.poll_s)
            if batch and self._paused.is_set() and not self._stopping.is_set():
                # Paused while blocked in take_batch: hand the batch back.
                self.admission.requeue_front(batch)
                continue
            if not batch:
                self.store.evict_expired()
                if self._stopping.is_set():
                    return
                continue
            if self._stopping.is_set() and not self._drain:
                for job_id in batch:
                    self._cancel(job_id)
                continue
            try:
                self._run_batch(batch)
            except BaseException:  # never let the drain thread die silently
                self.metrics.counter("service.scheduler.batch_errors").inc()
                for job_id in batch:
                    job = self.store.get(job_id)
                    if job is not None and job.state == RUNNING:
                        self._finish(job, FAILED, error=traceback.format_exc(limit=20))

    def _cancel(self, job_id: str) -> None:
        job = self.store.get(job_id)
        if job is not None and job.state not in (DONE, FAILED):
            self._finish(job, CANCELLED, error="cancelled at shutdown")

    def _finish(self, job: Job, state: str, error: Optional[str] = None) -> None:
        job.state = state
        job.error = error
        job.finished_s = self._clock()
        self.store.note_finished(job)
        counter = {
            DONE: "service.jobs.completed",
            FAILED: "service.jobs.failed",
            CANCELLED: "service.jobs.cancelled",
        }[state]
        self.metrics.counter(counter).inc()
        e2e_s = None
        if job.created_s:
            e2e_s = max(0.0, job.finished_s - job.created_s)
            self.metrics.histogram(
                "service.job.e2e_s", low=1e-3, high=1e4, growth=1.5
            ).record(e2e_s)
        self.ops_log.log(
            f"job.{state}", trace=job.trace_id, job=job.id, e2e_s=e2e_s,
            runs_cached=job.runs_cached, runs_executed=job.runs_executed,
            error=error,
        )

    def _run_batch(self, job_ids: List[str]) -> None:
        started = time.monotonic()
        jobs = [j for j in (self.store.get(i) for i in job_ids) if j is not None]
        if not jobs:
            return
        self.ops_log.log("batch.start", jobs=[j.id for j in jobs])
        # Union of not-yet-cached keys across the batch, submission order.
        # A profiled job forces *all* of its keys into the fan-out (a
        # profile only exists for an executed run), so its cache hits are
        # deliberately re-simulated — with attribution on.
        pending: List[RunKey] = []
        seen = set()
        needed_by: dict = {}  # RunKey -> jobs in this batch that planned it
        profile_keys: set = set()
        for job in jobs:
            job.state = RUNNING
            job.started_s = self._clock()
            job.batch_size = len(jobs)
            if job.created_s:
                self.metrics.histogram(
                    "service.job.queue_wait_s", low=1e-3, high=1e4, growth=1.5
                ).record(max(0.0, job.started_s - job.created_s))
            self.ops_log.log(
                "job.started", trace=job.trace_id, job=job.id,
                batch_jobs=len(jobs), planned_runs=len(job.run_keys),
                profile=job.spec.profile,
            )
            cached = 0
            for key in job.run_keys:
                if _experiment.cache_lookup(key) is not None and not job.spec.profile:
                    cached += 1
                    continue
                needed_by.setdefault(key, []).append(job)
                if job.spec.profile:
                    profile_keys.add(key)
                if key not in seen:
                    seen.add(key)
                    pending.append(key)
            job.runs_cached = cached
            job.runs_executed = len(job.run_keys) - cached

        report = self._execute_batch(pending, needed_by, profile_keys)
        exec_done_s = self._clock()
        self.metrics.counter("service.runs.executed").inc(report.executed)
        self.metrics.counter("service.runs.cache_hits").inc(
            sum(job.runs_cached for job in jobs)
        )
        if report.failed:
            self.metrics.counter("service.runs.failed").inc(len(report.failed))
        if self.governor is not None and report.executed:
            used = min(resolve_jobs(self.jobs), report.executed)
            self.governor.note_busy(
                max(0.0, report.execute_s * used - report.predicted_core_s)
            )
        self.ops_log.log(
            "batch.executed", runs=report.executed, execute_s=report.execute_s,
            workers=report.workers, failed=len(report.failed),
            predicted_core_s=round(report.predicted_core_s, 3),
        )
        failed_keys = {key: error for key, error in report.failed}

        from ..experiments.run_all import experiment_kwargs

        for job in jobs:
            job.exec_done_s = exec_done_s
            job.render_start_s = self._clock()
            if job.sim_runs:
                sim_s = sum(
                    run["wall_end_s"] - run["wall_start_s"]
                    for run in job.sim_runs
                )
                self.metrics.histogram(
                    "service.job.sim_s", low=1e-3, high=1e4, growth=1.5
                ).record(max(0.0, sim_s))
            # A job whose planned runs include a failed key can never
            # assemble its tables — fail it with the worker's traceback.
            # Sibling jobs in the batch are untouched: their runs all
            # completed (crash isolation), so they proceed normally.
            broken = [key for key in job.run_keys if key in failed_keys]
            if broken:
                first = broken[0]
                self._finish(job, FAILED, error=(
                    f"{len(broken)} of {len(job.run_keys)} planned runs "
                    f"failed; first ({run_label(first)}):\n"
                    f"{failed_keys[first]}"
                ))
                continue
            try:
                with _PLAN_LOCK:
                    job.results = [
                        render_result(
                            experiment_id,
                            experiment_kwargs(
                                experiment_id,
                                quick=job.spec.quick,
                                horizon_ms=job.spec.horizon_ms,
                            ),
                        )
                        for experiment_id in job.spec.experiments
                    ]
            except Exception:
                self._finish(job, FAILED, error=traceback.format_exc(limit=20))
                continue
            self._finish(job, DONE)
        self.admission.note_service_time((time.monotonic() - started) / len(jobs))

    def _execute_batch(
        self, pending: List[RunKey], needed_by: dict, profile_keys: set
    ):
        """Fan the batch's runs out and attach each one to its jobs.

        A run comes back with its wall-clock window, worker pid and (with
        tracing on) its first ``TRACE_EVENTS_PER_RUN`` events, stored once
        as an :func:`~repro.service.obs.encode_events` blob; the trace ids
        of the jobs that planned it come from ``needed_by``.  Keys in
        ``profile_keys`` come back with an attribution document, which
        lands on the ``profiles`` of every interested job that asked.
        """

        def on_run(key: RunKey, info: dict) -> None:
            jobs = needed_by.get(key, [])
            profile_doc = info["profile"]
            events = info["events"] or ()
            dropped = info["events_dropped"]
            self.trace_dropped += dropped
            # One record per run, shared by every job that planned it;
            # nothing mutates it once stored.
            run_doc = {
                "run": info["run"],
                "trace_ids": [job.trace_id for job in jobs],
                "wall_start_s": info["wall_start_s"],
                "wall_end_s": info["wall_end_s"],
                "worker_pid": info["worker_pid"],
                "events_kept": len(events),
                "events_dropped": dropped,
                "events": encode_events(events),
            }
            for job in jobs:
                job.sim_runs.append(run_doc)
                if profile_doc is not None and job.spec.profile:
                    job.profiles.append(profile_doc)
            if self.flight is not None:
                self.flight.note_run(run_doc, events, profile_doc)
            self.ops_log.log(
                "run.executed", run=run_doc["run"], traces=run_doc["trace_ids"],
                worker_pid=run_doc["worker_pid"],
                wall_s=round(run_doc["wall_end_s"] - run_doc["wall_start_s"], 6),
                profiled=profile_doc is not None,
            )

        # Charge the cost model's batch estimate to the governor before the
        # first run starts — admission starts back-pressuring while the
        # batch is in flight, not one batch later.  After execution only
        # the residual (actual - predicted, floored at 0) is added, so
        # nothing is counted twice.
        return execute_runs(
            pending,
            jobs=self.jobs,
            trace_capacity=TRACE_EVENTS_PER_RUN if self.trace else 0,
            profile_keys=profile_keys,
            on_run=on_run,
            on_predicted=None if self.governor is None else self.governor.note_predicted,
        )
