"""A set-associative, LRU, owner-tagged cache model.

Lines are tagged with an *owner* string, and hits and misses are counted
per owner.  The solo steady-state calibration
(:func:`~repro.uarch.state.measure_steady_state`) drives it to measure a
workload profile's baseline L1D miss rate.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List


class CacheStats:
    """Per-owner hit/miss accounting."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()

    def reset(self) -> None:
        self.hits.clear()
        self.misses.clear()

    def miss_rate(self, owner: str) -> float:
        """Miss rate for ``owner`` over everything recorded so far."""
        total = self.hits[owner] + self.misses[owner]
        return self.misses[owner] / total if total else 0.0


class SetAssociativeCache:
    """A classic set-associative cache with true-LRU replacement.

    Addresses are byte addresses; ``line_size`` must be a power of two.
    The cache is deliberately small relative to a real 32 KiB L1 so that
    scaled-down synthetic working sets exercise realistic contention.
    """

    def __init__(self, num_sets: int = 64, ways: int = 8, line_size: int = 64):
        if num_sets < 1 or ways < 1:
            raise ValueError("num_sets and ways must be >= 1")
        if line_size < 1 or (line_size & (line_size - 1)) != 0:
            raise ValueError(f"line_size must be a power of two, got {line_size}")
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self._line_shift = line_size.bit_length() - 1
        # Each set maps tag -> [owner, lru_stamp]; small dicts keep lookup O(1).
        self._sets: List[Dict[int, List]] = [dict() for _ in range(num_sets)]
        self._clock = 0
        self._occupancy: Counter = Counter()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def total_lines(self) -> int:
        """Capacity of the cache in lines."""
        return self.num_sets * self.ways

    @property
    def size_bytes(self) -> int:
        """Capacity of the cache in bytes."""
        return self.total_lines * self.line_size

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def access(self, address: int, owner: str) -> bool:
        """Access ``address`` on behalf of ``owner``; returns True on a hit.

        On a miss the line is installed with LRU replacement.
        """
        self._clock = clock = self._clock + 1
        line = address >> self._line_shift
        num_sets = self.num_sets
        cache_set = self._sets[line % num_sets]
        tag = line // num_sets
        entry = cache_set.get(tag)
        stats = self.stats
        if entry is not None:
            entry[1] = clock
            stats.hits[owner] += 1
            # A line can be re-claimed by a new owner (shared address space
            # is not modeled; same tag => same owner in practice).
            return True

        stats.misses[owner] += 1
        if len(cache_set) >= self.ways:
            # True-LRU victim: the first entry carrying the minimal stamp
            # (stamps are unique, so the scan picks the one oldest line).
            victim_tag = victim_owner = None
            victim_stamp = clock
            for candidate_tag, candidate in cache_set.items():
                stamp = candidate[1]
                if stamp < victim_stamp:
                    victim_stamp = stamp
                    victim_tag = candidate_tag
                    victim_owner = candidate[0]
            del cache_set[victim_tag]
            self._occupancy[victim_owner] -= 1
        cache_set[tag] = [owner, clock]
        self._occupancy[owner] += 1
        return False

    def occupancy(self, owner: str) -> int:
        """Number of lines currently owned by ``owner``."""
        return self._occupancy[owner]
