"""Unit tests for stores and resources (backpressure primitives)."""

import pytest

from repro.sim import Environment, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestStoreBasics:
    def test_put_then_get(self, env):
        store = Store(env)

        def producer():
            yield store.put("item")

        def consumer():
            value = yield store.get()
            return value

        env.process(producer())
        proc = env.process(consumer())
        env.run()
        assert proc.value == "item"

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer():
            value = yield store.get()
            return (value, env.now)

        def producer():
            yield env.timeout(25)
            yield store.put("late")

        proc = env.process(consumer())
        env.process(producer())
        env.run()
        assert proc.value == ("late", 25)

    def test_fifo_ordering(self, env):
        store = Store(env)
        got = []

        def producer():
            for i in range(3):
                yield store.put(i)

        def consumer():
            for _ in range(3):
                value = yield store.get()
                got.append(value)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert got == [0, 1, 2]

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)


class TestBoundedStoreBackpressure:
    def test_put_blocks_when_full(self, env):
        store = Store(env, capacity=2)
        times = []

        def producer():
            for i in range(4):
                yield store.put(i)
                times.append(env.now)

        def slow_consumer():
            while True:
                yield env.timeout(100)
                yield store.get()

        env.process(producer())
        env.process(slow_consumer())
        env.run(until=500)
        # First two puts complete immediately; the rest wait for drains.
        assert times == [0, 0, 100, 200]

    def test_is_full_and_counters(self, env):
        store = Store(env, capacity=1)
        store.put("a")
        env.run(until=0)
        assert store.is_full
        store.put("b")  # pends
        assert store.pending_puts == 1
        store.get()
        env.run(until=0)
        assert store.pending_puts == 0
        assert len(store) == 1

    def test_try_put_respects_capacity(self, env):
        store = Store(env, capacity=1)
        assert store.try_put("a")
        assert not store.try_put("b")

    def test_try_put_accepted_at_once_schedules_nothing(self, env):
        store = Store(env)
        assert store.try_put("a")
        assert list(store.items) == ["a"]
        assert env.peek() is None

    def test_try_put_wakes_a_blocked_getter_with_one_event(self, env):
        store = Store(env)
        got = []

        def consumer():
            got.append((yield store.get()))
            got.append(env.now)

        env.process(consumer())
        env.run(until=10)
        assert store.pending_gets == 1 and env.peek() is None
        assert store.try_put("item")
        assert len(env._queue) == 1 and env.peek() == 10
        env.run()
        assert got == ["item", 10]
        assert len(store) == 0

    def test_try_put_on_full_store_schedules_nothing(self, env):
        store = Store(env, capacity=1)
        assert store.try_put("a")
        assert not store.try_put("b")
        assert list(store.items) == ["a"]
        assert env.peek() is None

    def test_try_get(self, env):
        store = Store(env)
        ok, item = store.try_get()
        assert not ok and item is None
        store.put("x")
        ok, item = store.try_get()
        assert ok and item == "x"

class TestResource:
    def test_mutual_exclusion(self, env):
        lock = Resource(env, capacity=1)
        log = []

        def user(name, hold):
            yield lock.request()
            log.append((env.now, name, "acquire"))
            yield env.timeout(hold)
            log.append((env.now, name, "release"))
            lock.release()

        env.process(user("a", 10))
        env.process(user("b", 10))
        env.run()
        assert log == [
            (0, "a", "acquire"),
            (10, "a", "release"),
            (10, "b", "acquire"),
            (20, "b", "release"),
        ]

    def test_counting_capacity(self, env):
        pool = Resource(env, capacity=2)
        pool.request()
        pool.request()
        assert pool.available == 0
        third = pool.request()
        assert not third.triggered
        pool.release()
        assert third.triggered

    def test_release_without_request_raises(self, env):
        with pytest.raises(RuntimeError):
            Resource(env).release()

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)
