"""SSR chain tracing: per-stage latency breakdowns.

Every :class:`~repro.iommu.request.SsrRequest` is stamped as it moves
through the handling chain (Figure 1 of the paper):

``submitted`` (device writes the fault) -> ``accepted`` (PPR queue slot,
i.e., hardware backpressure cleared) -> ``drained`` (bottom half read the
log) -> ``queued`` (work item inserted) -> ``service_start`` (kworker got
the CPU) -> ``completed`` (response written back).

:func:`latency_breakdown` aggregates a set of completed requests into
per-stage latency statistics — mean and max exactly, p50/p95/p99 via the
telemetry histogram's geometric buckets — the tool for answering "where
does the SSR time go, and what did a mitigation actually change?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..iommu.request import SsrRequest
from ..telemetry.metrics import SUMMARY_PERCENTILES, Histogram

#: The chain stages, in order, with human labels.
STAGE_SEQUENCE: List[Tuple[str, str, str]] = [
    ("submitted", "accepted", "ppr_queue_wait"),
    ("accepted", "drained", "interrupt_and_bottom_half"),
    ("drained", "queued", "preprocessing"),
    ("queued", "service_start", "worker_scheduling"),
    ("service_start", "completed", "service"),
]


@dataclass(frozen=True)
class StageLatency:
    """Latency statistics of one chain stage over a request population.

    ``mean_ns`` and ``max_ns`` are exact; the quantiles come from a
    geometric-bucket :class:`~repro.telemetry.metrics.Histogram` (worst
    case ~12% relative error, clamped to the observed range).
    """

    name: str
    mean_ns: float
    max_ns: float
    samples: int
    p50_ns: float = 0.0
    p95_ns: float = 0.0
    p99_ns: float = 0.0


def latency_breakdown(requests: Iterable[SsrRequest]) -> List[StageLatency]:
    """Aggregate per-stage latencies over completed requests.

    Requests missing a stamp for a stage (e.g., signals, which skip the
    PPR path) simply do not contribute samples to that stage.
    """
    histograms: Dict[str, Histogram] = {
        label: Histogram(label) for _start, _end, label in STAGE_SEQUENCE
    }
    for request in requests:
        for start, end, label in STAGE_SEQUENCE:
            delta = request.stage_delta(start, end)
            if delta is None:
                continue
            histograms[label].record(delta)
    breakdown = []
    for _start, _end, label in STAGE_SEQUENCE:
        summary = histograms[label].summary()
        percentiles = summary["percentiles"]
        breakdown.append(
            StageLatency(
                name=label,
                mean_ns=summary["mean"],
                max_ns=summary["max"],
                samples=summary["count"],
                p50_ns=percentiles["p50"],
                p95_ns=percentiles["p95"],
                p99_ns=percentiles["p99"],
            )
        )
    return breakdown


def total_mean_latency_ns(requests: Iterable[SsrRequest]) -> float:
    """Mean end-to-end latency over completed requests."""
    latencies = [r.latency_ns for r in requests if r.latency_ns is not None]
    return sum(latencies) / len(latencies) if latencies else 0.0


def format_breakdown(breakdown: List[StageLatency]) -> str:
    """Render a breakdown as an aligned text table.

    The original mean/max/samples columns keep their positions; the
    percentile columns are appended (backward-compatible output).
    """
    percentile_headers = " ".join(
        f"{f'p{p}_us':>9s}" for p in SUMMARY_PERCENTILES
    )
    lines = [
        f"{'stage':28s} {'mean_us':>9s} {'max_us':>9s} {'samples':>8s} "
        f"{percentile_headers}"
    ]
    lines.append("-" * len(lines[0]))
    for stage in breakdown:
        percentile_cells = " ".join(
            f"{getattr(stage, f'p{p}_ns') / 1e3:9.2f}" for p in SUMMARY_PERCENTILES
        )
        lines.append(
            f"{stage.name:28s} {stage.mean_ns / 1e3:9.2f} "
            f"{stage.max_ns / 1e3:9.2f} {stage.samples:8d} "
            f"{percentile_cells}"
        )
    return "\n".join(lines)
