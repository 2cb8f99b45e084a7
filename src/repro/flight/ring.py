"""The bounded, deterministic diagnostics ring behind the flight recorder.

A :class:`FlightRing` keeps the tail of everything the daemon's ops
stream saw — job transitions, batch executions, SLO alert edges, in-sim
event tails, sampler frames — as timestamped, kind-tagged entries.  Like
:class:`repro.obsd.rollup.RollupStore` (whose decimation model this
mirrors) it trades *resolution* for *span* instead of dropping history
outright: when the ring fills, adjacent entry pairs merge — the later
entry's payload survives, its ``weight`` becomes the pair's sum, and its
``first_ts_s`` reaches back to the earlier entry — so the number of
records *represented* is conserved (``total_weight == appended``) while
detail coarsens toward the past, which is exactly the bias a postmortem
wants: full fidelity near the trigger, summaries further back.

Determinism: merge points depend only on the append count, never on wall
clock, so the same entry sequence always produces the same ring, byte
for byte.  Nothing here reads the clock; every timestamp is the
caller's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..telemetry.kit import check_ring_capacity, decimate_pairs

__all__ = ["DEFAULT_RING_CAPACITY", "FlightEntry", "FlightRing"]

#: Default entry capacity.  512 entries comfortably cover minutes of ops
#: events around a trigger at serving-tier event rates.
DEFAULT_RING_CAPACITY = 512


@dataclass
class FlightEntry:
    """One diagnostics record (or, after decimation, a merged pair run)."""

    seq: int
    ts_s: float
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)
    #: Records this entry represents (1 until decimation merges pairs).
    weight: int = 1
    #: Timestamp of the oldest record merged into this entry.
    first_ts_s: float = 0.0

    def absorb(self, earlier: "FlightEntry") -> "FlightEntry":
        """Fold an earlier entry into this one in place; returns ``self``.

        The later payload survives (near-trigger fidelity); the merged
        entry's weight and time span account for what was coarsened.
        """
        self.weight += earlier.weight
        self.first_ts_s = min(self.first_ts_s, earlier.first_ts_s)
        return self

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "ts_s": self.ts_s,
            "first_ts_s": self.first_ts_s,
            "kind": self.kind,
            "weight": self.weight,
            "data": self.data,
        }


class FlightRing:
    """Bounded ring of :class:`FlightEntry` with pair-merge decimation."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        check_ring_capacity(capacity)
        self.capacity = capacity
        self.entries: List[FlightEntry] = []
        #: Entries ever appended (== total_weight; conservation check).
        self.appended = 0
        #: Times the ring overflowed and adjacent pairs were merged.
        self.decimations = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_weight(self) -> int:
        """Records represented across all entries (== :attr:`appended`)."""
        return sum(entry.weight for entry in self.entries)

    def append(self, ts_s: float, kind: str, data: Dict[str, Any]) -> FlightEntry:
        entry = FlightEntry(
            seq=self.appended, ts_s=float(ts_s), kind=kind, data=data,
            first_ts_s=float(ts_s),
        )
        self.appended += 1
        self.entries.append(entry)
        if len(self.entries) >= self.capacity:
            # Deterministic decimation: merge adjacent pairs (later
            # payload wins, weights add).
            self.entries = decimate_pairs(
                self.entries, lambda earlier, later: later.absorb(earlier)
            )
            self.decimations += 1
        return entry

    def kind_counts(self) -> Dict[str, int]:
        """Represented-record counts per kind (weights, not entries)."""
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry.kind] = counts.get(entry.kind, 0) + entry.weight
        return {kind: counts[kind] for kind in sorted(counts)}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "appended": self.appended,
            "decimations": self.decimations,
            "entries": [entry.as_dict() for entry in self.entries],
        }
