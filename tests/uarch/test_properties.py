"""Property-based tests for microarchitecture models (hypothesis)."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.uarch import GShareBranchPredictor, SetAssociativeCache

_access = st.tuples(
    st.integers(min_value=0, max_value=2**20),  # address
    st.sampled_from(["a", "b", "kernel"]),
)


class TestCacheInvariants:
    @given(accesses=st.lists(_access, min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, accesses):
        cache = SetAssociativeCache(num_sets=4, ways=2)
        for address, owner in accesses:
            cache.access(address, owner)
            total = sum(cache.occupancy(o) for o in ("a", "b", "kernel"))
            assert total <= cache.total_lines

    @given(accesses=st.lists(_access, min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, accesses):
        cache = SetAssociativeCache(num_sets=4, ways=2)
        counts = Counter()
        for address, owner in accesses:
            cache.access(address, owner)
            counts[owner] += 1
        for owner, count in counts.items():
            assert cache.stats.hits[owner] + cache.stats.misses[owner] == count

    @given(accesses=st.lists(_access, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_immediate_reaccess_always_hits(self, accesses):
        cache = SetAssociativeCache(num_sets=8, ways=2)
        for address, owner in accesses:
            cache.access(address, owner)
            assert cache.access(address, owner) is True


_branch = st.tuples(
    st.integers(min_value=0, max_value=2**16),
    st.booleans(),
    st.sampled_from(["a", "b"]),
)


class TestPredictorInvariants:
    @given(branches=st.lists(_branch, min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_predictions_equal_executions(self, branches):
        predictor = GShareBranchPredictor(table_size=64, history_bits=2)
        counts = Counter()
        for pc, taken, owner in branches:
            predictor.execute(pc, taken, owner)
            counts[owner] += 1
        for owner, count in counts.items():
            assert predictor.stats.predictions[owner] == count

    @given(branches=st.lists(_branch, min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_mispredictions_bounded_by_predictions(self, branches):
        predictor = GShareBranchPredictor(table_size=64, history_bits=2)
        for pc, taken, owner in branches:
            predictor.execute(pc, taken, owner)
        for owner in ("a", "b"):
            assert (
                predictor.stats.mispredictions[owner]
                <= predictor.stats.predictions[owner]
            )

    @given(
        pc=st.integers(min_value=0, max_value=2**16),
        repeats=st.integers(min_value=4, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_constant_direction_eventually_predicted(self, pc, repeats):
        predictor = GShareBranchPredictor(table_size=64, history_bits=0)
        results = [predictor.execute(pc, True, "a") for _ in range(repeats)]
        assert results[-1] is True
