"""Trace exporters: Chrome ``trace_event`` JSON and the metrics text.

The JSON exporter emits the Trace Event Format understood by Perfetto and
``chrome://tracing``: one ``pid`` for the simulated SoC, one ``tid`` per
track (CPU cores first, then named device tracks such as ``iommu`` or
``gpu:ubench``).  Spans become complete events (``ph: "X"``), instants
``ph: "i"``, counter samples ``ph: "C"``; timestamps are microseconds (the
format's unit) with sub-microsecond precision preserved as fractions.
``hiss trace summary`` and ``timeline`` (:mod:`repro.telemetry.cli`) read
the written document back as aligned text.

:func:`render_metrics_text` is the Prometheus-style text exposition the
service's ``/metrics`` serves.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Union

from .metrics import MetricsRegistry
from .tracer import PHASE_COUNTER, PHASE_INSTANT, PHASE_SPAN, Tracer

__all__ = [
    "METRICS_TEXT_CONTENT_TYPE",
    "chrome_trace_dict",
    "render_metrics_text",
    "validate_chrome_trace",
    "write_chrome_trace",
]


#: Content type the text exposition should be served with (the versioned
#: Prometheus text format media type).
METRICS_TEXT_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``# HELP`` strings for well-known metric families (prefix-matched).
_HELP_PREFIXES = (
    ("service.job.", "serving-tier stage latency"),
    ("service.jobs.", "job lifecycle counter"),
    ("service.runs.", "simulation run counter"),
    ("service.pool.", "warm worker pool statistic"),
    ("service.queue.", "admission queue state"),
    ("service.qos.", "service governor state"),
    ("service.disk_cache.", "content-addressed disk cache statistic"),
    ("slo.", "SLO engine burn-rate state"),
    ("telemetry.", "tracer saturation accounting"),
    ("search.", "autotuner sweep statistic"),
)


def _help_for(name: str) -> str:
    for prefix, text in _HELP_PREFIXES:
        if name.startswith(prefix):
            return text
    return "repro metric"


def render_metrics_text(
    registry: MetricsRegistry, gauges: Optional[Dict[str, float]] = None
) -> str:
    """Prometheus/OpenMetrics-style text exposition of a registry.

    Every metric family is announced with ``# HELP``/``# TYPE`` comment
    lines (``counter`` / ``gauge`` / ``histogram``), followed by the same
    flat ``name value`` sample lines this exposition has always emitted —
    histograms expanded into their summary fields (``count``/``mean``/
    ``min``/``max``/``p50``/``p95``/``p99``).  Comment lines are
    ignored by line-oriented consumers (``grep``, the CI smoke greps), so
    existing scrapers keep working unchanged; scrape-aware consumers get
    the type metadata and the proper ``Content-Type``
    (:data:`METRICS_TEXT_CONTENT_TYPE`) from the daemon's ``/metrics``.
    """
    lines: List[str] = []
    snapshot = registry.snapshot()
    for name, value in snapshot["counters"].items():
        lines.append(f"# HELP {name} {_help_for(name)}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {value}")
    for name, summary in snapshot["histograms"].items():
        lines.append(f"# HELP {name} {_help_for(name)}")
        lines.append(f"# TYPE {name} histogram")
        for stat, value in summary.items():
            lines.append(f"{name}.{stat} {value:g}")
    for name, value in sorted((gauges or {}).items()):
        lines.append(f"# HELP {name} {_help_for(name)}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {value:g}" if isinstance(value, float) else f"{name} {value}")
    return "\n".join(lines) + "\n"

#: The single simulated-SoC process in the exported trace.
PID = 0

#: tid offset for named (non-core) tracks, leaving room for any core count.
NAMED_TRACK_TID_BASE = 1000


def _track_tids(tracer: Tracer) -> Dict[Union[int, str], int]:
    """Stable track -> tid mapping: core N -> N, named tracks -> 1000+i."""
    tids: Dict[Union[int, str], int] = {}
    named_index = 0
    for track in tracer.tracks():
        if isinstance(track, int):
            tids[track] = track
        else:
            tids[track] = NAMED_TRACK_TID_BASE + named_index
            named_index += 1
    return tids


def _track_label(track: Union[int, str]) -> str:
    return f"core {track}" if isinstance(track, int) else str(track)


def chrome_trace_dict(tracer: Tracer, label: str = "hiss") -> Dict[str, Any]:
    """Serialize a tracer into a Chrome trace_event JSON document."""
    tids = _track_tids(tracer)
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": PID,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    for track, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": PID,
                "tid": tid,
                "args": {"name": _track_label(track)},
            }
        )
    for event in tracer.events():
        record: Dict[str, Any] = {
            "ph": event.phase,
            "name": event.name,
            "cat": event.category,
            "pid": PID,
            "tid": tids[event.track],
            "ts": event.ts_ns / 1000.0,
        }
        if event.phase == PHASE_SPAN:
            record["dur"] = event.dur_ns / 1000.0
        elif event.phase == PHASE_INSTANT:
            record["s"] = "t"  # thread-scoped instant
        if event.args:
            record["args"] = dict(event.args)
        elif event.phase == PHASE_COUNTER:  # pragma: no cover - args always set
            record["args"] = {"value": 0}
        events.append(record)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "repro.telemetry",
            "dropped_events": tracer.dropped,
            "metrics": tracer.metrics.snapshot(),
        },
    }


def write_chrome_trace(tracer: Tracer, path: str, label: str = "hiss") -> None:
    """Write the Chrome-trace JSON for ``tracer`` to ``path``."""
    with open(path, "w") as handle:
        json.dump(chrome_trace_dict(tracer, label=label), handle)


# ----------------------------------------------------------------------
# Validation (used by tests, the CLI, and the CI smoke job)
# ----------------------------------------------------------------------
_REQUIRED_EVENT_KEYS = ("ph", "name", "pid", "tid")
_KNOWN_PHASES = {"X", "i", "I", "C", "M", "B", "E"}


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema-check a Chrome-trace document; returns a list of problems.

    An empty list means the document is loadable by Perfetto /
    ``chrome://tracing``: a ``traceEvents`` array whose entries carry the
    required keys, numeric non-negative timestamps, and durations on every
    complete event.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for index, event in enumerate(events):
        if len(errors) >= 50:
            errors.append("... further errors suppressed")
            break
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in _REQUIRED_EVENT_KEYS:
            if key not in event:
                errors.append(f"{where}: missing key {key!r}")
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        if phase == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: complete event with bad dur {dur!r}")
        if phase == "C" and not isinstance(event.get("args"), dict):
            errors.append(f"{where}: counter event without args")
    return errors
