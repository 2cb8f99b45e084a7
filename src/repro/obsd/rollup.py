"""Bounded, deterministic time-series rollups of service telemetry.

The serving tier's instruments are *cumulative*: counters only grow and
the stage histograms accumulate over the daemon's whole life, so "is the
tail degrading *now*" cannot be read off them directly — a week of good
behavior arithmetically swamps a bad five minutes, which is exactly how
the paper says SSR interference hides (tails move long before means).

A :class:`RollupStore` fixes that by keeping **windows**: at a fixed
interval it snapshots the cumulative state and stores the *delta* since
the previous snapshot as a :class:`RollupBucket` — counter increments,
windowed histograms (bucket-wise differences, merged back together with
:meth:`repro.telemetry.metrics.Histogram.merge`), and gauge last-values.
Burn-rate windows (fast 5 m / slow 1 h) are then pure merges over the
buckets that cover them.

Properties, mirroring :mod:`repro.profiling.sampler`:

* **Bounded memory with deterministic decimation** — when the ring
  fills, adjacent bucket pairs are merged (counters add, histograms
  merge, gauges keep the later value) and the interval doubles.  The
  merge points depend only on the sample count, never on wall clock.
* **Pure evaluation** — window queries take an explicit ``end_s`` (the
  last bucket's end by default) and never read the clock, so the same
  stored buckets always produce the same windows, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..telemetry.kit import check_ring_capacity, decimate_pairs
from ..telemetry.metrics import Histogram

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_INTERVAL_S",
    "RollupBucket",
    "RollupStore",
]

#: Default sampling cadence for the live engine (wall seconds).
DEFAULT_INTERVAL_S = 5.0

#: Default ring capacity (buckets retained before decimation).  4096
#: buckets at 5 s cover ~5.7 h — comfortably past the 1 h slow window.
DEFAULT_CAPACITY = 4096


@dataclass
class RollupBucket:
    """Everything that happened in one ``[start_s, end_s)`` window."""

    start_s: float
    end_s: float
    #: Monotonic-counter increments within the window.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Point-in-time values observed at the window's end.
    gauges: Dict[str, float] = field(default_factory=dict)
    #: Observations recorded within the window, at bucket resolution.
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end_s - self.start_s

    def merge(self, other: "RollupBucket") -> "RollupBucket":
        """Fold a later bucket into this one in place; returns ``self``.

        Counters add, histograms merge bucket-wise, gauges take the later
        bucket's value (they are last-value semantics), and the window
        extends to cover both.
        """
        self.start_s = min(self.start_s, other.start_s)
        self.end_s = max(self.end_s, other.end_s)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(other.gauges)
        for name, window in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = window.delta(None)
            else:
                mine.merge(window)
        return self

    def total(self, names) -> int:
        """Sum of this window's increments across ``names``."""
        return sum(self.counters.get(name, 0) for name in names)

    def as_dict(self) -> Dict[str, object]:
        return {
            "start_s": self.start_s,
            "end_s": self.end_s,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                name: self.histograms[name].summary()
                for name in sorted(self.histograms)
            },
        }


class RollupStore:
    """Fixed-interval ring of :class:`RollupBucket` windows."""

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        check_ring_capacity(capacity)
        self.initial_interval_s = interval_s
        self.interval_s = interval_s
        self.capacity = capacity
        self.buckets: List[RollupBucket] = []
        #: Times the ring overflowed and adjacent pairs were merged.
        self.decimations = 0
        #: Cumulative state at the previous sample (for delta computation).
        self._prev_counters: Dict[str, int] = {}
        self._prev_histograms: Dict[str, Histogram] = {}
        self._last_sample_s: Optional[float] = None

    def __len__(self) -> int:
        return len(self.buckets)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def sample(
        self,
        now_s: float,
        counters: Optional[Dict[str, int]] = None,
        gauges: Optional[Dict[str, float]] = None,
        histograms: Optional[Dict[str, Histogram]] = None,
    ) -> RollupBucket:
        """Snapshot cumulative state; store and return the delta bucket.

        ``counters`` and ``histograms`` are *cumulative* (live registry
        values); the stored bucket holds their increments since the last
        sample.  The first sample's window starts one interval before it,
        so a store's buckets always tile time without gaps.
        """
        counters = counters or {}
        histograms = histograms or {}
        start_s = (
            self._last_sample_s
            if self._last_sample_s is not None
            else now_s - self.interval_s
        )
        bucket = RollupBucket(start_s=start_s, end_s=now_s, gauges=dict(gauges or {}))
        for name in sorted(counters):
            delta = counters[name] - self._prev_counters.get(name, 0)
            if delta:
                bucket.counters[name] = delta
            self._prev_counters[name] = counters[name]
        for name in sorted(histograms):
            cumulative = histograms[name]
            window = cumulative.delta(self._prev_histograms.get(name))
            if window.count:
                bucket.histograms[name] = window
            self._prev_histograms[name] = cumulative.delta(None)
        self._last_sample_s = now_s
        self._append(bucket)
        return bucket

    def _append(self, bucket: RollupBucket) -> None:
        self.buckets.append(bucket)
        if len(self.buckets) >= self.capacity:
            # Deterministic decimation: merge adjacent pairs, double the
            # interval.  Counter sums and histogram merges lose nothing;
            # only the bucket boundaries coarsen.
            self.buckets = decimate_pairs(self.buckets, RollupBucket.merge)
            self.interval_s *= 2
            self.decimations += 1

    # ------------------------------------------------------------------
    # Pure window queries
    # ------------------------------------------------------------------
    @property
    def end_s(self) -> Optional[float]:
        """End timestamp of the newest bucket (None when empty)."""
        return self.buckets[-1].end_s if self.buckets else None

    def window(self, seconds: float, end_s: Optional[float] = None) -> RollupBucket:
        """One merged bucket covering ``[end_s - seconds, end_s]``.

        ``end_s`` defaults to the newest bucket's end — **not** the wall
        clock — so evaluation over a finished capture is reproducible.
        A bucket is included when any part of it overlaps the window
        (buckets are never split; windows are bucket-granular).
        """
        if end_s is None:
            end_s = self.end_s if self.end_s is not None else 0.0
        cutoff = end_s - seconds
        merged = RollupBucket(start_s=end_s - seconds, end_s=end_s)
        for bucket in self.buckets:
            if bucket.end_s <= cutoff or bucket.start_s >= end_s:
                continue
            merged.merge(bucket)
        # Keep the nominal window bounds: partial-overlap buckets may
        # extend past them, but reports should state what was asked.
        merged.start_s = end_s - seconds
        merged.end_s = end_s
        return merged

    def as_dict(self) -> Dict[str, object]:
        return {
            "interval_s": self.interval_s,
            "initial_interval_s": self.initial_interval_s,
            "capacity": self.capacity,
            "decimations": self.decimations,
            "buckets": [bucket.as_dict() for bucket in self.buckets],
        }
