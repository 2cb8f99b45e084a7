"""Counters and fixed-bucket latency histograms.

The simulator's legacy aggregates (``repro.core.tracing``) reported only
mean/max per stage; tail latency is where SSR interference actually lives
(a single kworker scheduling delay behind a busy CPU app is invisible in
the mean).  :class:`Histogram` keeps geometrically spaced buckets so p50 /
p95 / p99 come out of a run at O(1) memory, with *exact* min / max / mean
alongside the bucketed quantiles.

Everything here is pure bookkeeping: recording never touches the
simulation clock or event heap, so metrics can be collected without
perturbing a deterministic run.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional

__all__ = ["Counter", "Histogram", "MetricsRegistry", "SUMMARY_PERCENTILES"]

#: The percentiles every summary in the repo reports, in order.  Shared
#: by :meth:`Histogram.summary`, ``core.tracing.format_breakdown``, and
#: the exporters so the p50/p95/p99 column set is defined exactly once.
SUMMARY_PERCENTILES = (50, 95, 99)


class Counter:
    """A monotonically increasing named event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


#: Default bucket range: 10 ns .. 10 s, ~12% relative quantile error.
DEFAULT_LOW = 10.0
DEFAULT_HIGH = 1e10
DEFAULT_GROWTH = 1.25


class Histogram:
    """A fixed-bucket latency histogram with exact min/max/mean.

    Buckets are geometric: bucket ``i`` covers ``(edge[i-1], edge[i]]``
    with ``edge[i] = low * growth**i``; one underflow and one overflow
    bucket bound the range.  Quantiles interpolate linearly inside the
    landing bucket and are clamped to the observed ``[min, max]``, so the
    worst-case quantile error is one bucket's width (~``growth - 1``
    relative).
    """

    __slots__ = ("name", "_edges", "_counts", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str = "",
        low: float = DEFAULT_LOW,
        high: float = DEFAULT_HIGH,
        growth: float = DEFAULT_GROWTH,
    ):
        if low <= 0 or high <= low or growth <= 1.0:
            raise ValueError(f"bad histogram shape low={low} high={high} growth={growth}")
        self.name = name
        edges: List[float] = [low]
        while edges[-1] < high:
            edges.append(edges[-1] * growth)
        self._edges = edges
        self._counts = [0] * (len(edges) + 1)  # +1: overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name}: negative sample {value}")
        self._counts[bisect_left(self._edges, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` (0..1), interpolated within-bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self._edges[index - 1] if index > 0 else 0.0
                upper = (
                    self._edges[index]
                    if index < len(self._edges)
                    else (self.max if self.max is not None else lower)
                )
                fraction = (target - cumulative) / bucket_count
                estimate = lower + fraction * (upper - lower)
                # Clamp to the observed range (0 is a valid min/max).
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
            cumulative += bucket_count
        return self.max if self.max is not None else 0.0  # pragma: no cover

    def same_shape(self, other: "Histogram") -> bool:
        """Whether ``other`` has identical bucket edges (mergeable)."""
        return (
            len(self._edges) == len(other._edges)
            and self._edges[0] == other._edges[0]
            and self._edges[-1] == other._edges[-1]
        )

    def spawn_empty(self, name: Optional[str] = None) -> "Histogram":
        """A zeroed histogram sharing this one's bucket edges.

        The rollup store uses this to build windowed histograms without
        re-deriving the shape parameters; the edge list is shared (it is
        never mutated after construction).
        """
        twin: "Histogram" = Histogram.__new__(Histogram)
        twin.name = self.name if name is None else name
        twin._edges = self._edges
        twin._counts = [0] * len(self._counts)
        twin.count = 0
        twin.sum = 0.0
        twin.min = None
        twin.max = None
        return twin

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place; returns ``self``.

        Bucket-wise addition with count/sum/min/max preserved, so
        ``summary()`` of the merged histogram equals the summary of the
        combined observation stream at bucket resolution.  Both
        histograms must share bucket edges (the rollup windowing always
        merges same-named instruments, which do by construction).
        """
        if not self.same_shape(other):
            raise ValueError(
                f"histogram {self.name}: cannot merge incompatible shape "
                f"({len(self._edges)} edges [{self._edges[0]}, {self._edges[-1]}] "
                f"vs {len(other._edges)} edges "
                f"[{other._edges[0]}, {other._edges[-1]}])"
            )
        for index, bucket_count in enumerate(other._counts):
            if bucket_count:
                self._counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    def delta(self, baseline: Optional["Histogram"]) -> "Histogram":
        """The window of observations recorded since ``baseline``.

        ``baseline`` must be an earlier snapshot of this same (cumulative)
        histogram; the result holds the bucket-wise difference.  Exact
        min/max of the window are unrecoverable from two cumulative
        states, so they are left unset and windowed quantiles interpolate
        purely within buckets.  ``baseline=None`` copies the histogram.
        """
        window = self.spawn_empty()
        if baseline is None:
            window._counts = list(self._counts)
            window.count = self.count
            window.sum = self.sum
            window.min = self.min
            window.max = self.max
            return window
        if not self.same_shape(baseline):
            raise ValueError(
                f"histogram {self.name}: delta against incompatible shape"
            )
        for index, bucket_count in enumerate(self._counts):
            diff = bucket_count - baseline._counts[index]
            if diff < 0:
                raise ValueError(
                    f"histogram {self.name}: baseline is not an earlier "
                    f"snapshot (bucket {index} shrank)"
                )
            window._counts[index] = diff
        window.count = self.count - baseline.count
        window.sum = self.sum - baseline.sum
        return window

    def fraction_over(self, threshold: float) -> float:
        """Fraction of observations above ``threshold`` (bucket-interpolated).

        The SLO engine's "bad event" estimator: within the bucket that
        straddles the threshold, observations are assumed uniformly
        spread, matching :meth:`quantile`'s interpolation, so the two are
        consistent to bucket resolution.
        """
        if self.count == 0:
            return 0.0
        over = 0.0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            lower = self._edges[index - 1] if index > 0 else 0.0
            upper = (
                self._edges[index]
                if index < len(self._edges)
                else (self.max if self.max is not None else self._edges[-1])
            )
            if lower >= threshold:
                over += bucket_count
            elif upper > threshold:
                span = upper - lower
                fraction = (upper - threshold) / span if span > 0 else 0.0
                over += bucket_count * fraction
        return min(1.0, over / self.count)

    def percentiles(self) -> Dict[str, float]:
        return {
            f"p{p}": self.quantile(p / 100.0) for p in SUMMARY_PERCENTILES
        }

    def summary(self) -> Dict[str, object]:
        """Structured summary: count/sum/min/max/mean + a percentiles dict.

        The single source of truth for "what does a histogram look like
        summarized" — :meth:`snapshot`, the SSR stage breakdown in
        :mod:`repro.core.tracing`, and the service's ``/v1/ops`` tail
        latencies are all flattenings of this shape.
        """
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "percentiles": self.percentiles(),
        }

    def snapshot(self) -> Dict[str, float]:
        """Flat summary dict (the exporters embed this in trace metadata)."""
        summary = self.summary()
        percentiles = summary.pop("percentiles")
        summary.pop("sum")  # legacy flat shape: count/mean/min/max + pNN
        summary.update(percentiles)
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.1f}>"


class MetricsRegistry:
    """Create-on-demand registry of named counters and histograms.

    Lookups are lock-free (the simulator calls these on hot paths); only
    first-time creation takes a lock, so many server request threads can
    share one registry without ever racing two instruments onto one name.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._create_lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._create_lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def histogram(self, name: str, **kwargs) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._create_lock:
                histogram = self._histograms.setdefault(name, Histogram(name, **kwargs))
        return histogram

    def absorb(self, counters: Dict[str, int], histograms: Dict[str, Histogram]) -> None:
        """Add another registry's counter values and histograms into this one.

        A histogram new to this registry takes the incoming one's bucket
        edges, so every same-named pair merges.
        """
        for name, value in counters.items():
            self.counter(name).inc(value)
        for name, histogram in histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                with self._create_lock:
                    mine = self._histograms.setdefault(name, histogram.spawn_empty(name))
            mine.merge(histogram)

    @property
    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict summary of every metric (JSON-serializable)."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
        }
