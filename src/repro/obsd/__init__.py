"""Self-watching observability: SLOs, burn-rate alerts, trace analytics,
and the flight recorder's triggered postmortems.

The serving tier *records* everything the paper says matters — stage
histograms, span traces, a JSONL ops log — but records are not
judgements.  ``repro.obsd`` closes the loop: it watches the telemetry
the service already emits and decides, deterministically, whether the
service is meeting its own objectives.  SSR interference is bursty, so
it also keeps the black box: when an alert fires or a worker crashes,
the moments around it are captured before the rollups decimate them.

The pieces (see ``docs/observability.md``):

* :mod:`~repro.obsd.rollup` — a bounded, deterministic time-series of
  windowed metric snapshots (counter deltas, histogram windows, gauge
  last-values) in fixed-interval buckets with ring eviction and
  halving decimation, mirroring :mod:`repro.profiling`'s sampler.
* :mod:`~repro.obsd.slo` — declarative :class:`SloSpec`\\ s (latency
  percentile, availability, windowed ratio) evaluated as multi-window
  burn-rate rules; evaluation is a **pure function of captured
  buckets** — no wall-clock reads in the decision path — so the same
  capture always yields the same verdicts.
* :mod:`~repro.obsd.ring` — :class:`FlightRing`, the bounded
  deterministic diagnostics ring (pair-merge decimation, like the
  rollup store's).
* :mod:`~repro.obsd.triggers` — :class:`TriggerSpec` capture conditions
  with per-trigger debounce and hourly rate limits.
* :mod:`~repro.obsd.bundle` — the ``hiss.postmortem/1`` document,
  validation, and the atomic keep-N :class:`PostmortemStore`.
* :mod:`~repro.obsd.recorder` — :class:`FlightRecorder`: tees off the
  ops log into the ring, evaluates triggers, captures bundles.
* :mod:`~repro.obsd.engine` — the stateful :class:`SloEngine` a daemon
  runs (rollup sampling, edge-triggered
  :class:`~repro.obsd.slo.AlertEvent`\\ s into the ops JSONL, the
  ``GET /v1/alerts`` document, ``slo.*`` gauges for ``/metrics``) and
  the :class:`Watcher`, the one background thread that ticks the engine
  and writes the recorder's queued captures.
* :mod:`~repro.obsd.traces` — per-stage queueing decomposition (with
  the batch's sim critical path) and ``trace diff`` attribution of an
  end-to-end latency delta between two jobs to their stages.

:mod:`~repro.obsd.replay` rebuilds rollup buckets offline from a
captured ops JSONL; :mod:`~repro.obsd.report` renders text and
single-file HTML; :mod:`~repro.obsd.cli` (``hiss slo``) evaluates,
diffs, and renders reports from either a capture or a live daemon, and
lists, summarizes, renders and validates postmortem bundles.

Disabled (the default) each live half is a ``None`` attribute on the
service and the recorder's ops-log tee is a skipped check in
:class:`repro.service.obs.OpsLog` — served results are byte-for-byte
what a build without them produces.
"""

from .rollup import RollupBucket, RollupStore
from .slo import (
    ALERTS_SCHEMA,
    DEFAULT_SLOS,
    SLO_SCHEMA,
    AlertEvent,
    SloSpec,
    evaluate_slos,
    parse_slo_document,
    slo_document,
    validate_slo_document,
)
from .engine import SloEngine, Watcher
from .traces import stage_decomposition, trace_diff
from .replay import ReplayedCapture, replay_ops_log
from .ring import FlightRing
from .triggers import TriggerSpec, TriggerState, default_triggers
from .bundle import (
    POSTMORTEM_SCHEMA,
    PostmortemStore,
    blame_top_k,
    build_postmortem,
    list_bundles,
    postmortem_id,
    validate_postmortem,
)
from .recorder import FlightRecorder

__all__ = [
    "ALERTS_SCHEMA",
    "AlertEvent",
    "DEFAULT_SLOS",
    "FlightRecorder",
    "FlightRing",
    "POSTMORTEM_SCHEMA",
    "PostmortemStore",
    "ReplayedCapture",
    "RollupBucket",
    "RollupStore",
    "SLO_SCHEMA",
    "SloEngine",
    "SloSpec",
    "TriggerSpec",
    "TriggerState",
    "Watcher",
    "blame_top_k",
    "build_postmortem",
    "default_triggers",
    "evaluate_slos",
    "list_bundles",
    "parse_slo_document",
    "postmortem_id",
    "replay_ops_log",
    "slo_document",
    "stage_decomposition",
    "trace_diff",
    "validate_postmortem",
    "validate_slo_document",
]
