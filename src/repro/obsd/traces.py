"""Trace analytics over job span documents.

The serving tier's trace endpoint (``GET /v1/jobs/<id>/trace``) returns
a span document whose stage spans chain on shared timestamps — admission
back-off, submit, queue wait, batch execution (with per-run ``sim-*``
children), render.  That construction makes its analyses exact rather
than heuristic:

* :func:`stage_decomposition` — how the job's end-to-end wall time
  divides across stages, with the batch stage further split into
  **sim-critical** time (the union of the parallel per-run sim spans —
  the part a faster simulator would shrink) and **batch overhead**
  (assembly, dispatch, result collection — the part only the serving
  tier can shrink).  Because stages tile the root span, the rows sum to
  the end-to-end time by construction.
* :func:`trace_diff` — attribute the end-to-end latency delta between
  two jobs to stages: "job B was 2.1 s slower, 87 % of it queue wait"
  is the queueing-delay attribution the paper makes for SSRs, applied
  to the service's own pipeline.

Both are pure functions of the documents passed in;
:func:`trace_problems` says whether a document is one they can read.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["stage_decomposition", "trace_diff", "trace_problems"]

#: Serial stage categories in pipeline order (as emitted by
#: ``repro.service.obs.build_trace_document``).
_STAGE_ORDER = ("backoff", "submit", "queue", "sim_critical", "batch_overhead", "render")

#: Human labels for decomposition rows.
_STAGE_LABELS = {
    "backoff": "admission back-off (429s + waits)",
    "submit": "submit (parse + plan)",
    "queue": "queue wait",
    "sim_critical": "batch: sim critical path",
    "batch_overhead": "batch: scheduling overhead",
    "render": "render",
}


def trace_problems(doc: Any) -> List[str]:
    """Why ``doc`` is not a job trace these analyses can read ([] if it is).

    Only what they read is checked: a ``spans`` array of objects that each
    carry a string ``span_id``, one of them the ``root`` span.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("spans"), list):
        return ["not a job trace: no 'spans' array"]
    problems = [
        f"spans[{index}] has no string 'span_id'"
        for index, span in enumerate(doc["spans"])
        if not isinstance(span, dict) or not isinstance(span.get("span_id"), str)
    ]
    if not any(isinstance(s, dict) and s.get("span_id") == "root" for s in doc["spans"]):
        problems.append("no 'root' span")
    return problems


def _spans_by_id(doc: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {span["span_id"]: span for span in doc.get("spans", [])}


def _duration(span: Optional[Dict[str, Any]]) -> float:
    if not span or span.get("end_s") is None or span.get("start_s") is None:
        return 0.0
    return max(0.0, span["end_s"] - span["start_s"])


def _interval_union(spans: List[Dict[str, Any]]) -> float:
    """Total seconds covered by at least one of the given spans."""
    intervals: List[Tuple[float, float]] = sorted(
        (span["start_s"], span["end_s"])
        for span in spans
        if span.get("start_s") is not None and span.get("end_s") is not None
    )
    covered = 0.0
    cursor: Optional[float] = None
    end: float = 0.0
    for start, stop in intervals:
        if cursor is None or start > end:
            if cursor is not None:
                covered += end - cursor
            cursor, end = start, stop
        else:
            end = max(end, stop)
    if cursor is not None:
        covered += end - cursor
    return covered


def stage_decomposition(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Per-stage share of one job's end-to-end wall time.

    Returns ``{"job_id", "trace_id", "state", "e2e_s", "stages": [...]}``
    where each stage row carries ``{"stage", "label", "seconds",
    "share"}`` (share of e2e) in pipeline order.  Stages sum to ``e2e_s``
    up to float rounding because the underlying spans tile the root.
    """
    spans = _spans_by_id(doc)
    backoffs = [s for s in doc.get("spans", []) if s["span_id"].startswith("backoff-")]
    sims = [s for s in doc.get("spans", []) if s["span_id"].startswith("sim-")]
    batch_s = _duration(spans.get("batch"))
    sim_critical = min(batch_s, _interval_union(sims)) if sims else 0.0
    # The back-off stage is everything before the accepted submission
    # arrived: the 429 rounds themselves *and* the Retry-After sleeps the
    # client sat out between them — that keeps the stages tiling the
    # root span (the rejected spans alone would leave the sleeps as an
    # unattributed gap).
    root_span = spans.get("root")
    submit_span = spans.get("submit")
    if root_span and submit_span:
        backoff_s = max(0.0, submit_span["start_s"] - root_span["start_s"])
    else:
        backoff_s = sum(_duration(s) for s in backoffs)
    seconds = {
        "backoff": backoff_s,
        "submit": _duration(spans.get("submit")),
        "queue": _duration(spans.get("queue")),
        "sim_critical": sim_critical,
        "batch_overhead": batch_s - sim_critical,
        "render": _duration(spans.get("render")),
    }
    root = spans.get("root")
    e2e_s = _duration(root)
    if e2e_s <= 0:
        e2e_s = sum(seconds.values())
    stages = [
        {
            "stage": stage,
            "label": _STAGE_LABELS[stage],
            "seconds": seconds[stage],
            "share": (seconds[stage] / e2e_s) if e2e_s else 0.0,
        }
        for stage in _STAGE_ORDER
    ]
    return {
        "job_id": doc.get("job_id"),
        "trace_id": doc.get("trace_id"),
        "state": doc.get("state"),
        "e2e_s": e2e_s,
        "runs": len(sims),
        "stages": stages,
    }


def trace_diff(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> Dict[str, Any]:
    """Attribute the e2e latency delta between two jobs to stages.

    ``doc_a`` is the baseline, ``doc_b`` the comparison.  Each stage row
    carries both absolute times, the delta, and the delta's share of the
    end-to-end delta (shares sum to 1 up to rounding when the e2e delta
    is non-zero).  Positive delta = B spent longer in that stage.
    """
    a = stage_decomposition(doc_a)
    b = stage_decomposition(doc_b)
    e2e_delta = b["e2e_s"] - a["e2e_s"]
    rows = []
    a_stages = {row["stage"]: row for row in a["stages"]}
    for row_b in b["stages"]:
        row_a = a_stages[row_b["stage"]]
        delta = row_b["seconds"] - row_a["seconds"]
        rows.append(
            {
                "stage": row_b["stage"],
                "label": row_b["label"],
                "a_s": row_a["seconds"],
                "b_s": row_b["seconds"],
                "delta_s": delta,
                "share_of_delta": (delta / e2e_delta) if e2e_delta else 0.0,
            }
        )
    rows.sort(key=lambda r: abs(r["delta_s"]), reverse=True)
    return {
        "a": {"job_id": a["job_id"], "trace_id": a["trace_id"], "e2e_s": a["e2e_s"]},
        "b": {"job_id": b["job_id"], "trace_id": b["trace_id"], "e2e_s": b["e2e_s"]},
        "e2e_delta_s": e2e_delta,
        "stages": rows,
    }
