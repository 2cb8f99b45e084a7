"""Structured telemetry for the HISS simulator.

Its pieces (see ``docs/observability.md``):

* :mod:`repro.telemetry.tracer` — a zero-cost-when-disabled event tracer
  recording spans/instants keyed by core (or device track) and sim-time
  into a bounded ring buffer, or, per run, into its first N events.
* :mod:`repro.telemetry.metrics` — counters and fixed-bucket latency
  histograms (p50/p95/p99/max) for end-of-run aggregates.
* :mod:`repro.telemetry.export` — Chrome ``trace_event`` JSON (open in
  Perfetto / ``chrome://tracing``), written by ``hiss experiments
  --trace`` and read back as aligned text by the ``hiss trace`` CLI.
* :mod:`repro.telemetry.spans` — wall-clock lifecycle spans with trace
  ids for the serving tier: span documents, validation, and stitching of
  service spans with in-sim event streams into one Chrome trace.
* :mod:`repro.telemetry.kit` — what the report tools and bounded rings
  share: the HTML page shell, JSON loading, CLI plumbing, and the
  pair-merge decimation step.

This package sits *below* the simulation layers (it imports nothing from
them), so every layer can hold a tracer reference without import cycles.
"""

from .metrics import Counter, Histogram, MetricsRegistry
from .tracer import (
    NULL_TRACER,
    NullTracer,
    RunTracer,
    TraceEvent,
    Tracer,
    get_active_tracer,
    set_active_tracer,
)
from .export import (
    METRICS_TEXT_CONTENT_TYPE,
    chrome_trace_dict,
    render_metrics_text,
    validate_chrome_trace,
    write_chrome_trace,
)
from .spans import (
    Span,
    SpanRecorder,
    clean_trace_id,
    new_span_id,
    new_trace_id,
    stitched_chrome_trace,
    trace_document,
    validate_trace_document,
)

__all__ = [
    "Counter",
    "Histogram",
    "METRICS_TEXT_CONTENT_TYPE",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "RunTracer",
    "Span",
    "SpanRecorder",
    "TraceEvent",
    "Tracer",
    "chrome_trace_dict",
    "clean_trace_id",
    "get_active_tracer",
    "new_span_id",
    "new_trace_id",
    "render_metrics_text",
    "set_active_tracer",
    "stitched_chrome_trace",
    "trace_document",
    "validate_chrome_trace",
    "validate_trace_document",
    "write_chrome_trace",
]
