"""Unit tests for the gshare/bimodal branch predictor."""

import pytest

from repro.uarch import GShareBranchPredictor


@pytest.fixture
def predictor():
    return GShareBranchPredictor(table_size=64, history_bits=0)


class TestConstruction:
    def test_invalid_table_size(self):
        with pytest.raises(ValueError):
            GShareBranchPredictor(table_size=60)

    def test_invalid_history_bits(self):
        with pytest.raises(ValueError):
            GShareBranchPredictor(history_bits=31)


class TestTraining:
    def test_initial_prediction_is_not_taken(self, predictor):
        # WEAK_NOT_TAKEN initial state: a not-taken branch predicts correctly.
        assert predictor.execute(0x400, taken=False, owner="a") is True

    def test_taken_branch_trains_after_two_executions(self, predictor):
        predictor.execute(0x400, taken=True, owner="a")   # mispredict, trains up
        predictor.execute(0x400, taken=True, owner="a")   # now weak-taken
        assert predictor.execute(0x400, taken=True, owner="a") is True

    def test_saturation_resists_single_flip(self, predictor):
        for _ in range(4):
            predictor.execute(0x400, taken=True, owner="a")  # strong taken
        predictor.execute(0x400, taken=False, owner="a")      # one anomaly
        assert predictor.execute(0x400, taken=True, owner="a") is True

    def test_stats_accumulate(self, predictor):
        predictor.execute(0x400, taken=True, owner="a")
        predictor.execute(0x400, taken=True, owner="a")
        assert predictor.stats.predictions["a"] == 2
        assert predictor.stats.mispredictions["a"] >= 1

    def test_biased_stream_converges_to_low_mispredicts(self, predictor):
        import random

        rng = random.Random(1)
        mispredicts = 0
        # Warm up.
        for _ in range(100):
            predictor.execute(0x400, taken=rng.random() < 0.95, owner="a")
        predictor.stats.reset()
        for _ in range(1000):
            taken = rng.random() < 0.95
            if not predictor.execute(0x400, taken, owner="a"):
                mispredicts += 1
        assert mispredicts / 1000 < 0.15


class TestOwnershipDisturbance:
    def test_distinct_pcs_map_to_distinct_entries_bimodal(self, predictor):
        # With 0 history bits and <= table_size distinct pcs at stride 4,
        # there is no aliasing: training every site once leaves each entry
        # one step from its initial state, so a second taken run mispredicts
        # nowhere, while an aliased pair would have trained an entry twice.
        first = [predictor.execute(0x1000 + site * 4, True, "a") for site in range(64)]
        assert not any(first)
        second = [predictor.execute(0x1000 + site * 4, True, "a") for site in range(64)]
        assert all(second)
        # The 65th site wraps onto site 0's trained entry.
        assert predictor.execute(0x1000 + 64 * 4, False, "a") is False


class TestHistoryMode:
    def test_history_changes_index(self):
        # One taken branch trains its entry to weak-taken.  Without history
        # the same pc then predicts taken; with history the taken outcome
        # shifted in moves the pc to an untrained entry, which predicts
        # not-taken.
        bimodal = GShareBranchPredictor(table_size=64, history_bits=0)
        bimodal.execute(0x100, True, "a")
        assert bimodal.execute(0x100, True, "a") is True
        gshare = GShareBranchPredictor(table_size=64, history_bits=4)
        gshare.execute(0x100, True, "a")
        assert gshare.execute(0x100, True, "a") is False
