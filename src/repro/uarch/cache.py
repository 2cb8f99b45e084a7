"""A set-associative, LRU cache model with hit/miss counts.

The solo steady-state calibration
(:func:`~repro.uarch.state.measure_steady_state`) drives it to measure a
workload profile's baseline L1D miss rate.
"""

from __future__ import annotations

from typing import Dict, List


class CacheStats:
    """Hit/miss counts."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def miss_rate(self) -> float:
        """Miss rate over everything recorded so far."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


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
        # Each set maps tag -> lru_stamp; small dicts keep lookup O(1).
        self._sets: List[Dict[int, int]] = [dict() for _ in range(num_sets)]
        self._clock = 0
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

    @property
    def occupancy(self) -> int:
        """Number of lines currently held."""
        return sum(len(cache_set) for cache_set in self._sets)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def access(self, address: int) -> bool:
        """Access ``address``; returns True on a hit.

        On a miss the line is installed with LRU replacement.
        """
        self._clock = clock = self._clock + 1
        line = address >> self._line_shift
        num_sets = self.num_sets
        cache_set = self._sets[line % num_sets]
        tag = line // num_sets
        if tag in cache_set:
            cache_set[tag] = clock
            self.stats.hits += 1
            return True

        self.stats.misses += 1
        if len(cache_set) >= self.ways:
            # True-LRU victim: stamps are unique, so the minimum is the
            # one oldest line.
            del cache_set[min(cache_set, key=cache_set.__getitem__)]
        cache_set[tag] = clock
        return False
