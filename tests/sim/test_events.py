"""Unit tests for the core event primitives."""

import pytest

from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(RuntimeError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(RuntimeError):
            env.event().ok

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_succeed_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_callbacks_run_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        env.run()
        assert seen == ["payload"]
        assert event.processed

    def test_unhandled_failure_propagates(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        event.defuse()
        env.run()
        assert not event.ok


class TestTimeout:
    def test_fires_at_delay(self, env):
        fired_at = []
        timeout = env.timeout(100)
        timeout.callbacks.append(lambda e: fired_at.append(env.now))
        env.run()
        assert fired_at == [100]

    def test_carries_value(self, env):
        timeout = env.timeout(5, value="v")
        env.run()
        assert timeout.value == "v"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_zero_delay_fires_now(self, env):
        times = []
        env.timeout(0).callbacks.append(lambda e: times.append(env.now))
        env.run()
        assert times == [0]

    def test_ordering_is_fifo_at_same_time(self, env):
        order = []
        for tag in "abc":
            timeout = env.timeout(10)
            timeout.callbacks.append(lambda e, t=tag: order.append(t))
        env.run()
        assert order == ["a", "b", "c"]


class TestAllOf:
    def test_waits_for_all(self, env):
        t1 = env.timeout(5)
        t2 = env.timeout(50)
        cond = env.all_of([t1, t2])
        done_at = []
        cond.callbacks.append(lambda e: done_at.append(env.now))
        env.run()
        assert done_at == [50]
        assert cond.value == [t1, t2]

    def test_empty_succeeds_immediately(self, env):
        cond = env.all_of([])
        env.run()
        assert cond.triggered and cond.ok

    def test_failure_fails_condition(self, env):
        bad = env.event()
        cond = env.all_of([bad, env.timeout(10)])
        cond.defuse()
        bad.fail(RuntimeError("inner"))
        env.run()
        assert not cond.ok
