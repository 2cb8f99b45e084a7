"""Property-based tests for microarchitecture models (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.uarch import GShareBranchPredictor, SetAssociativeCache

_address = st.integers(min_value=0, max_value=2**20)


class TestCacheInvariants:
    @given(accesses=st.lists(_address, min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, accesses):
        cache = SetAssociativeCache(num_sets=4, ways=2)
        for address in accesses:
            cache.access(address)
            assert cache.occupancy <= cache.total_lines

    @given(accesses=st.lists(_address, min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, accesses):
        cache = SetAssociativeCache(num_sets=4, ways=2)
        for address in accesses:
            cache.access(address)
        assert cache.stats.hits + cache.stats.misses == len(accesses)

    @given(accesses=st.lists(_address, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_immediate_reaccess_always_hits(self, accesses):
        cache = SetAssociativeCache(num_sets=8, ways=2)
        for address in accesses:
            cache.access(address)
            assert cache.access(address) is True


_branch = st.tuples(st.integers(min_value=0, max_value=2**16), st.booleans())


class TestPredictorInvariants:
    @given(branches=st.lists(_branch, min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_predictions_equal_executions(self, branches):
        predictor = GShareBranchPredictor(table_size=64, history_bits=2)
        for pc, taken in branches:
            predictor.execute(pc, taken)
        assert predictor.stats.predictions == len(branches)

    @given(branches=st.lists(_branch, min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_mispredictions_bounded_by_predictions(self, branches):
        predictor = GShareBranchPredictor(table_size=64, history_bits=2)
        for pc, taken in branches:
            predictor.execute(pc, taken)
        assert predictor.stats.mispredictions <= predictor.stats.predictions

    @given(
        pc=st.integers(min_value=0, max_value=2**16),
        repeats=st.integers(min_value=4, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_constant_direction_eventually_predicted(self, pc, repeats):
        predictor = GShareBranchPredictor(table_size=64, history_bits=0)
        results = [predictor.execute(pc, True) for _ in range(repeats)]
        assert results[-1] is True
