"""Unit tests for the sampled window and the solo steady-state calibration."""

import random

import pytest

from repro.uarch import (
    AddressStreamSpec,
    BranchStreamSpec,
    UarchConfig,
    measure_steady_state,
    run_window,
)


@pytest.fixture
def state():
    """A cache, a predictor and the RNG that drives windows through them."""
    config = UarchConfig(cache_sets=16, cache_ways=4)
    return config.make_cache(), config.make_predictor(), random.Random(0)


def _window(state, addr, branch, accesses, branches):
    return run_window(*state, addr, branch, accesses, branches)


def _user_specs(lines=32):
    return (
        AddressStreamSpec(base=0x1_0000, lines=lines, hot_fraction=0.5, hot_rate=0.9),
        BranchStreamSpec(base_pc=0x4000, sites=32, bias=0.95),
    )


class TestUserWindow:
    def test_returns_miss_and_mispredict_counts(self, state):
        addr, branch = _user_specs()
        misses, mispredicts = _window(state, addr, branch, 100, 50)
        assert 0 < misses <= 100
        assert 0 <= mispredicts <= 50

    def test_warm_window_misses_less(self, state):
        addr, branch = _user_specs(lines=16)
        cold_misses, _ = _window(state, addr, branch, 200, 10)
        warm_misses, _ = _window(state, addr, branch, 200, 10)
        assert warm_misses < cold_misses

    def test_occupancy_builds(self, state):
        addr, branch = _user_specs(lines=16)
        _window(state, addr, branch, 200, 10)
        assert state[0].occupancy > 0


class TestSteadyState:
    def test_rates_are_probabilities(self):
        addr, branch = _user_specs(lines=200)
        miss, mispredict = measure_steady_state(addr, branch, UarchConfig())
        assert 0.0 <= miss <= 1.0
        assert 0.0 <= mispredict <= 1.0

    def test_small_hot_set_misses_less_than_huge_set(self):
        config = UarchConfig()
        small = AddressStreamSpec(base=0, lines=64, hot_fraction=0.5, hot_rate=0.95)
        huge = AddressStreamSpec(base=0, lines=4096, hot_fraction=0.05, hot_rate=0.3)
        branch = BranchStreamSpec(base_pc=0x4000, sites=32, bias=0.95)
        small_miss, _ = measure_steady_state(small, branch, config)
        huge_miss, _ = measure_steady_state(huge, branch, config)
        assert small_miss < huge_miss

    def test_predictable_branches_mispredict_less(self):
        config = UarchConfig()
        addr = AddressStreamSpec(base=0, lines=64)
        predictable = BranchStreamSpec(base_pc=0, sites=32, bias=0.98)
        erratic = BranchStreamSpec(base_pc=0, sites=32, bias=0.6)
        _, low = measure_steady_state(addr, predictable, config)
        _, high = measure_steady_state(addr, erratic, config)
        assert low < high
