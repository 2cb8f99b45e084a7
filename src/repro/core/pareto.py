"""Pareto-frontier analysis for mitigation combinations (Figs. 7 and 8).

Two layers:

* the figure-facing 2-D API (:class:`ParetoPoint`, :func:`pareto_frontier`,
  :func:`frontier_labels`) the paper's Pareto charts use, and
* an N-dimensional vector layer (:func:`vector_dominates`,
  :func:`pareto_frontier_map`) for the autotuner's archive
  (:mod:`repro.search`), where every objective has already been oriented
  so that larger is better.

Both layers share one determinism contract: points whose objective
vectors are *identical* are deduplicated (the lexicographically smallest
label survives) and the frontier is returned in a canonical order that
does not depend on insertion order — the property the search archive's
bit-for-bit reproducibility rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class ParetoPoint:
    """One configuration's (CPU performance, GPU performance) trade-off."""

    label: str
    cpu_performance: float
    gpu_performance: float


def vector_dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if vector ``a`` dominates ``b`` (every axis maximized).

    ``a`` must be at least as good everywhere and strictly better
    somewhere; vectors must share a length.
    """
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    at_least = all(x >= y for x, y in zip(a, b))
    strictly = any(x > y for x, y in zip(a, b))
    return at_least and strictly


def pareto_frontier_map(
    items: Mapping[str, Sequence[float]]
) -> List[Tuple[str, Tuple[float, ...]]]:
    """Non-dominated ``(label, vector)`` pairs of ``items``, canonical order.

    Every objective is assumed maximized (callers negate minimized axes).
    Labels with identical vectors collapse to the lexicographically
    smallest label, and the result is sorted by ``(vector, label)`` — so
    the output is a pure function of the *set* of items, independent of
    mapping insertion order.
    """
    # Dedup identical vectors first: smallest label wins, deterministically.
    by_vector: Dict[Tuple[float, ...], str] = {}
    for label in sorted(items):
        vector = tuple(float(v) for v in items[label])
        if vector not in by_vector:
            by_vector[vector] = label
    unique = sorted((vector, label) for vector, label in by_vector.items())
    frontier = [
        (label, vector)
        for vector, label in unique
        if not any(
            vector_dominates(other, vector) for other, _ in unique if other != vector
        )
    ]
    return frontier


def pareto_frontier(points: Sequence[ParetoPoint]) -> List[ParetoPoint]:
    """The non-dominated subset, in canonical order.

    Points with identical ``(cpu, gpu)`` vectors are deduplicated — the
    lexicographically smallest label represents the group — and the
    frontier is sorted by ``(cpu_performance, gpu_performance, label)``,
    so the result never depends on the order points were supplied in.
    """
    by_label: Dict[str, ParetoPoint] = {}
    for point in points:
        existing = by_label.get(point.label)
        if existing is None or existing == point:
            by_label[point.label] = point
        else:
            raise ValueError(
                f"conflicting points share the label {point.label!r}"
            )
    frontier = pareto_frontier_map(
        {
            label: (point.cpu_performance, point.gpu_performance)
            for label, point in by_label.items()
        }
    )
    return [by_label[label] for label, _vector in frontier]


def frontier_labels(points: Sequence[ParetoPoint]) -> List[str]:
    return [p.label for p in pareto_frontier(points)]
