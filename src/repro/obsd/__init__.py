"""Self-watching observability: SLOs, burn-rate alerts, trace analytics.

The serving tier *records* everything the paper says matters — stage
histograms, span traces, a JSONL ops log — but records are not
judgements.  ``repro.obsd`` closes the loop: it watches the telemetry
the service already emits and decides, deterministically, whether the
service is meeting its own objectives.

Four cooperating pieces (see ``docs/observability.md``):

* :mod:`repro.obsd.rollup` — a bounded, deterministic time-series of
  windowed metric snapshots (counter deltas, histogram windows, gauge
  last-values) in fixed-interval buckets with ring eviction and
  halving decimation, mirroring :mod:`repro.profiling`'s sampler.
* :mod:`repro.obsd.slo` — declarative :class:`SloSpec`\\ s (latency
  percentile, availability, windowed ratio) evaluated as multi-window
  burn-rate rules; evaluation is a **pure function of captured
  buckets** — no wall-clock reads in the decision path — so the same
  capture always yields the same verdicts.
* :mod:`repro.obsd.engine` — the stateful :class:`SloEngine` a daemon
  runs: periodic rollup sampling, edge-triggered
  :class:`~repro.obsd.slo.AlertEvent`\\ s into the ops JSONL, the
  ``GET /v1/alerts`` document, and ``slo.*`` gauges for ``/metrics``.
* :mod:`repro.obsd.traces` — per-stage queueing decomposition (with
  the batch's sim critical path) and ``trace diff`` attribution of an
  end-to-end latency delta between two jobs to their stages.

:mod:`repro.obsd.replay` rebuilds rollup buckets offline from a
captured ops JSONL, and :mod:`repro.obsd.cli` (``hiss-slo``) evaluates,
diffs, and renders reports from either a capture or a live daemon.
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
from .engine import SloEngine
from .traces import stage_decomposition, trace_diff
from .replay import ReplayedCapture, replay_ops_log

__all__ = [
    "ALERTS_SCHEMA",
    "AlertEvent",
    "DEFAULT_SLOS",
    "ReplayedCapture",
    "RollupBucket",
    "RollupStore",
    "SLO_SCHEMA",
    "SloEngine",
    "SloSpec",
    "evaluate_slos",
    "parse_slo_document",
    "replay_ops_log",
    "slo_document",
    "stage_decomposition",
    "trace_diff",
    "validate_slo_document",
]
