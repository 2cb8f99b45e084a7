"""Trigger predicates: spec validation, debounce, and the hourly cap.

Everything is evaluated against event timestamps the tests supply, so
suppression decisions are exact — no sleeps, no clock reads.
"""

import pytest

from repro.obsd import TriggerSpec, TriggerState, default_triggers
from repro.obsd.triggers import KIND_MANUAL, KIND_SLO_ALERT, RATE_WINDOW_S


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TriggerSpec("x", "nope")

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            TriggerSpec("", KIND_SLO_ALERT)

    def test_rejects_negative_debounce_and_zero_rate(self):
        with pytest.raises(ValueError):
            TriggerSpec("x", KIND_SLO_ALERT, debounce_s=-1.0)
        with pytest.raises(ValueError):
            TriggerSpec("x", KIND_SLO_ALERT, max_per_hour=0)


class TestDebounce:
    def test_rapid_repeats_are_suppressed(self):
        state = TriggerState(TriggerSpec("a", KIND_SLO_ALERT, debounce_s=30.0))
        assert state.should_fire(100.0)
        assert not state.should_fire(110.0)
        assert not state.should_fire(129.9)
        assert state.should_fire(130.0)
        assert state.fired == 2
        assert state.suppressed_debounce == 2

    def test_zero_debounce_admits_back_to_back(self):
        state = TriggerState(
            TriggerSpec("m", KIND_MANUAL, debounce_s=0.0, max_per_hour=60)
        )
        assert state.should_fire(5.0)
        assert state.should_fire(5.0)


class TestRateLimit:
    def test_hourly_cap_suppresses_then_recovers(self):
        state = TriggerState(
            TriggerSpec("a", KIND_SLO_ALERT, debounce_s=0.0, max_per_hour=3)
        )
        for offset in (0.0, 10.0, 20.0):
            assert state.should_fire(offset)
        assert not state.should_fire(30.0)
        assert state.suppressed_rate == 1
        # The window slides on event time: an hour past the first
        # admission, a slot frees up.
        assert state.should_fire(RATE_WINDOW_S + 5.0)

    def test_as_dict_carries_counters(self):
        state = TriggerState(TriggerSpec("a", KIND_SLO_ALERT, debounce_s=0.0))
        state.should_fire(1.0)
        doc = state.as_dict()
        assert doc["name"] == "a"
        assert doc["fired"] == 1
        assert doc["suppressed_debounce"] == 0
        assert doc["suppressed_rate"] == 0


class TestDefaultTriggers:
    def test_standard_set_covers_the_four_auto_kinds_plus_manual(self):
        kinds = {spec.kind for spec in default_triggers()}
        assert kinds == {"slo_alert", "worker_crash", "ledger_invariant", "manual"}

    def test_manual_trigger_has_no_debounce(self):
        manual = next(s for s in default_triggers() if s.kind == KIND_MANUAL)
        assert manual.debounce_s == 0.0
        assert manual.max_per_hour == 60
