"""Unit tests for the owner-tagged set-associative cache."""

import pytest

from repro.uarch import SetAssociativeCache


@pytest.fixture
def cache():
    return SetAssociativeCache(num_sets=4, ways=2, line_size=64)


class TestGeometry:
    def test_total_lines(self, cache):
        assert cache.total_lines == 8

    def test_size_bytes(self, cache):
        assert cache.size_bytes == 512

    def test_invalid_line_size(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(line_size=48)

    def test_invalid_sets(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(num_sets=0)


class TestBasicAccess:
    def test_first_access_misses(self, cache):
        assert cache.access(0x1000, "a") is False

    def test_second_access_hits(self, cache):
        cache.access(0x1000, "a")
        assert cache.access(0x1000, "a") is True

    def test_same_line_different_offset_hits(self, cache):
        cache.access(0x1000, "a")
        assert cache.access(0x103F, "a") is True

    def test_adjacent_line_misses(self, cache):
        cache.access(0x1000, "a")
        assert cache.access(0x1040, "a") is False

    def test_stats_track_hits_and_misses(self, cache):
        cache.access(0x1000, "a")
        cache.access(0x1000, "a")
        cache.access(0x2000, "a")
        assert cache.stats.hits["a"] == 1
        assert cache.stats.misses["a"] == 2
        assert cache.stats.miss_rate("a") == pytest.approx(2 / 3)

    def test_miss_rate_with_no_accesses(self, cache):
        assert cache.stats.miss_rate("ghost") == 0.0


class TestLruReplacement:
    def test_lru_victim_is_evicted(self, cache):
        # Set 0 has 2 ways; lines mapping to set 0 are multiples of 4 lines.
        set_stride = 4 * 64  # num_sets * line_size
        a, b, c = 0, set_stride, 2 * set_stride
        cache.access(a, "x")
        cache.access(b, "x")
        cache.access(a, "x")  # refresh a; b is now LRU
        cache.access(c, "x")  # evicts b
        assert cache.access(a, "x") is True
        assert cache.access(b, "x") is False  # b was the victim

    def test_occupancy_tracks_eviction(self, cache):
        set_stride = 4 * 64
        cache.access(0, "a")
        cache.access(set_stride, "a")
        assert cache.occupancy("a") == 2
        cache.access(2 * set_stride, "b")
        assert cache.occupancy("a") == 1
        assert cache.occupancy("b") == 1


class TestMaintenance:
    def test_stats_reset(self, cache):
        cache.access(0, "a")
        cache.stats.reset()
        assert cache.stats.misses["a"] == 0
