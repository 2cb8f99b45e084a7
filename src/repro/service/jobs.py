"""Job model for the simulation service: specs, lifecycle, and the store.

A *job* is one client submission — a list of registered experiments plus
the grid options the CLI would take (``--quick``, ``--horizon-ms``).  The
submission path plans the job into the parallel engine's run keys
(:mod:`repro.service.scheduler`), and the resulting *dedupe key* — a
digest over the spec and its planned :data:`~repro.core.runcache.RunKey`
set — collapses duplicate submissions onto the same live job, so a
thousand identical clients cost one simulation pass.

The :class:`JobStore` is the single source of truth for job state.  It is
lock-protected (HTTP request threads and the scheduler thread share it)
and evicts terminal jobs after a TTL so a long-lived daemon's memory is
bounded by its traffic, not its uptime.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..core.runcache import RunKey
from ..telemetry.spans import new_trace_id

__all__ = [
    "BadSpec",
    "Job",
    "JobSpec",
    "JobStore",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
]

#: Job lifecycle states (queued -> running -> done | failed | cancelled).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Spec fields a submission document may carry.
_SPEC_FIELDS = frozenset(
    {"experiment", "experiments", "quick", "horizon_ms", "profile"}
)


class BadSpec(ValueError):
    """A submission document that cannot become a job (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """What the client asked for, normalized to the CLI's vocabulary."""

    experiments: Tuple[str, ...]
    quick: bool = False
    horizon_ms: Optional[float] = None
    #: Attribute every run (interference ledger + sim-time samples) and
    #: serve the bundle at ``GET /v1/jobs/<id>/profile``.  Profiled runs
    #: are simulated even when cached — a profile only exists for an
    #: executed run — so this trades cache hits for attribution.
    profile: bool = False

    @classmethod
    def from_document(cls, doc: Any, registry: Dict[str, Callable]) -> "JobSpec":
        """Validate a JSON submission document into a spec.

        Raises :class:`BadSpec` with a client-actionable message on any
        problem; never lets an unknown field pass silently.
        """
        if not isinstance(doc, dict):
            raise BadSpec("job spec must be a JSON object")
        unknown = set(doc) - _SPEC_FIELDS
        if unknown:
            raise BadSpec(
                f"unknown spec field(s) {sorted(unknown)}; "
                f"allowed: {sorted(_SPEC_FIELDS)}"
            )
        experiments = doc.get("experiments")
        if experiments is None and "experiment" in doc:
            experiments = [doc["experiment"]]
        if not isinstance(experiments, (list, tuple)) or not experiments:
            raise BadSpec("spec needs 'experiment' or a non-empty 'experiments' list")
        for experiment_id in experiments:
            if not isinstance(experiment_id, str) or experiment_id not in registry:
                raise BadSpec(
                    f"unknown experiment {experiment_id!r}; known: {sorted(registry)}"
                )
        quick = doc.get("quick", False)
        if not isinstance(quick, bool):
            raise BadSpec(f"'quick' must be a boolean, got {quick!r}")
        horizon_ms = doc.get("horizon_ms")
        if horizon_ms is not None:
            if not isinstance(horizon_ms, (int, float)) or isinstance(horizon_ms, bool):
                raise BadSpec(f"'horizon_ms' must be a number, got {horizon_ms!r}")
            horizon_ms = float(horizon_ms)
            if horizon_ms <= 0:
                raise BadSpec(f"'horizon_ms' must be positive, got {horizon_ms}")
        profile = doc.get("profile", False)
        if not isinstance(profile, bool):
            raise BadSpec(f"'profile' must be a boolean, got {profile!r}")
        return cls(tuple(experiments), quick, horizon_ms, profile)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "experiments": list(self.experiments),
            "quick": self.quick,
            "horizon_ms": self.horizon_ms,
            "profile": self.profile,
        }

    def canonical_json(self) -> str:
        """Byte-stable rendering (one input to the dedupe digest)."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


@dataclass
class Job:
    """One accepted submission and everything learned while serving it."""

    id: str
    spec: JobSpec
    dedupe_key: str
    #: Ordered, deduplicated run keys the planner recorded for this spec.
    run_keys: List[RunKey] = field(default_factory=list)
    #: Experiments in the spec the planner cannot pre-plan (run serially).
    serial_only: List[str] = field(default_factory=list)
    state: str = QUEUED
    #: End-to-end correlation id: server-assigned at submission, carried
    #: across back-off rounds, into pool workers, and through the JSONL log.
    trace_id: str = ""
    created_s: float = 0.0
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    # -- trace timestamps (wall clock; stamped by server/scheduler) -----
    #: When the accepting HTTP request began handling this submission.
    received_s: Optional[float] = None
    #: Wall-clock cost of planning the spec on the request thread.
    plan_elapsed_s: float = 0.0
    #: 429 rounds this trace sat out before admission
    #: (``{received_s, rejected_s, reason, retry_after_s}`` each).
    backoff_rounds: List[dict] = field(default_factory=list)
    #: When the batch's run fan-out finished / this job's render began.
    exec_done_s: Optional[float] = None
    render_start_s: Optional[float] = None
    #: How many jobs shared the batch that served this one.
    batch_size: int = 0
    #: Runs simulated on this job's behalf: per run its label, the trace
    #: ids of the jobs that planned it, its wall-clock window, worker pid,
    #: and (tracing on) the captured in-sim event stream.
    sim_runs: List[dict] = field(default_factory=list)
    #: With ``spec.profile``, one ``hiss.profile.run/1`` document per
    #: simulated run (served as a bundle at ``/v1/jobs/<id>/profile``).
    profiles: List[dict] = field(default_factory=list)
    #: Of the planned runs, how many were already cached when it started.
    runs_cached: int = 0
    #: How many runs its batch had to simulate on its behalf.
    runs_executed: int = 0
    #: How many times clients submitted this work (1 = no duplicates).
    submissions: int = 1
    error: Optional[str] = None
    #: The CLI-equivalent ``--json`` document (list of result dicts).
    results: Optional[List[dict]] = None

    def as_dict(self) -> Dict[str, Any]:
        """The status document ``GET /v1/jobs/<id>`` serves."""
        doc: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "trace_id": self.trace_id,
            "spec": self.spec.as_dict(),
            "planned_runs": len(self.run_keys),
            "runs_cached": self.runs_cached,
            "runs_executed": self.runs_executed,
            "serial_only": list(self.serial_only),
            "submissions": self.submissions,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.state == DONE:
            doc["result_url"] = f"/v1/jobs/{self.id}/result"
        doc["trace_url"] = f"/v1/jobs/{self.id}/trace"
        if self.spec.profile:
            doc["profiled_runs"] = len(self.profiles)
            if self.state == DONE:
                doc["profile_url"] = f"/v1/jobs/{self.id}/profile"
        return doc


class JobStore:
    """Thread-safe registry of jobs with dedupe and TTL eviction."""

    def __init__(self, ttl_s: float = 900.0, clock: Callable[[], float] = time.time):
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._by_dedupe: Dict[str, str] = {}
        #: ``(finished_s, job id)`` of terminal jobs, in finish order: TTL
        #: expiry pops from the front and never walks the retained jobs.
        self._finished: Deque[Tuple[float, str]] = deque()
        self._seq = itertools.count(1)
        self.evicted = 0

    def submit(
        self,
        spec: JobSpec,
        dedupe_key: str,
        run_keys: List[RunKey],
        serial_only: List[str],
        admit: Callable[[str], None],
        trace_id: Optional[str] = None,
        received_s: Optional[float] = None,
        plan_elapsed_s: float = 0.0,
        backoff_rounds: Optional[List[dict]] = None,
    ) -> Tuple[Job, bool]:
        """Dedupe-or-create under one lock; returns ``(job, deduplicated)``.

        ``admit`` is the admission gate (it enqueues the new job id or
        raises :class:`~repro.service.admission.RejectedJob`); it runs
        *before* the job is indexed, so a rejected submission leaves no
        trace.  A live or completed twin short-circuits admission
        entirely — duplicates are free, exactly the point of deduping.

        The trace fields must land *before* the job is indexed (the
        scheduler thread may batch it the instant ``admit`` notifies), so
        they are arguments here rather than caller-side patches.
        """
        with self._lock:
            self._evict_expired_locked()
            existing_id = self._by_dedupe.get(dedupe_key)
            if existing_id is not None:
                existing = self._jobs.get(existing_id)
                if existing is not None and existing.state not in (FAILED, CANCELLED):
                    existing.submissions += 1
                    return existing, True
            job_id = f"job-{next(self._seq):06d}-{dedupe_key[:10]}"
            admit(job_id)
            job = Job(
                id=job_id,
                spec=spec,
                dedupe_key=dedupe_key,
                run_keys=list(run_keys),
                serial_only=list(serial_only),
                trace_id=trace_id or new_trace_id(),
                created_s=self._clock(),
                received_s=received_s,
                plan_elapsed_s=plan_elapsed_s,
                backoff_rounds=list(backoff_rounds or []),
            )
            self._jobs[job_id] = job
            self._by_dedupe[dedupe_key] = job_id
            return job, False

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            self._evict_expired_locked()
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            self._evict_expired_locked()
            return sorted(self._jobs.values(), key=lambda j: j.id)

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (the ``/metrics`` gauges)."""
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts

    def note_finished(self, job: Job) -> None:
        """Queue ``job``, just made terminal, for expiry ``ttl_s`` after
        its ``finished_s``."""
        with self._lock:
            self._finished.append((job.finished_s, job.id))

    def evict(self, job_id: str) -> bool:
        """Forcibly remove one job (any state); returns whether it existed."""
        with self._lock:
            job = self._jobs.pop(job_id, None)
            if job is None:
                return False
            if self._by_dedupe.get(job.dedupe_key) == job_id:
                del self._by_dedupe[job.dedupe_key]
            self.evicted += 1
            return True

    def evict_expired(self) -> int:
        with self._lock:
            return self._evict_expired_locked()

    def _evict_expired_locked(self) -> int:
        if self.ttl_s is None or self.ttl_s <= 0:
            return 0
        now = self._clock()
        expired = 0
        while self._finished and now - self._finished[0][0] > self.ttl_s:
            _finished_s, job_id = self._finished.popleft()
            job = self._jobs.pop(job_id, None)
            if job is None:  # a DELETE already removed it
                continue
            if self._by_dedupe.get(job.dedupe_key) == job_id:
                del self._by_dedupe[job.dedupe_key]
            expired += 1
        self.evicted += expired
        return expired
