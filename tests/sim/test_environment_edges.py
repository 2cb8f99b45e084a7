"""Edge-case tests for the environment and engine error paths."""

import pytest

from repro.sim import Environment


class TestEmptySchedule:
    def test_run_on_empty_is_noop(self):
        env = Environment()
        env.run()
        assert env.now == 0

    def test_peek_empty(self):
        assert Environment().peek() is None

    def test_peek_returns_next_time(self):
        env = Environment()
        env.timeout(50)
        env.timeout(10)
        assert env.peek() == 10


class TestRunRaises:
    def test_failed_event_raises_its_exception(self):
        """An undefused failure raises out of a bounded ``run`` too, at the
        instant it is processed."""
        env = Environment()
        target = env.event()
        env.call_later(5, lambda: target.fail(KeyError("why")))
        with pytest.raises(KeyError):
            env.run(until=100)
        assert env.now == 5


class TestInitialTime:
    def test_nonzero_start(self):
        env = Environment(initial_time=500)
        fired = []
        env.timeout(10).callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == [510]


class TestCallLaterOrdering:
    def test_callbacks_fire_in_registration_order_at_same_instant(self):
        env = Environment()
        order = []
        env.call_later(10, lambda: order.append("a"))
        env.call_later(10, lambda: order.append("b"))
        env.run()
        assert order == ["a", "b"]
