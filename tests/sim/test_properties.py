"""Property-based tests for the simulation kernel (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Store


@st.composite
def delay_lists(draw):
    return draw(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40))


class TestEventOrdering:
    @given(delays=delay_lists())
    @settings(max_examples=60, deadline=None)
    def test_timeouts_fire_in_nondecreasing_time_order(self, delays):
        env = Environment()
        fired = []
        for delay in delays:
            timeout = env.timeout(delay)
            timeout.callbacks.append(lambda e, d=delay: fired.append((env.now, d)))
        env.run()
        times = [t for t, _ in fired]
        assert times == sorted(times)
        assert sorted(d for _, d in fired) == sorted(delays)

    @given(delays=delay_lists())
    @settings(max_examples=60, deadline=None)
    def test_same_delay_preserves_creation_order(self, delays):
        env = Environment()
        fired = []
        for index, _ in enumerate(delays):
            timeout = env.timeout(100)  # all at the same instant
            timeout.callbacks.append(lambda e, i=index: fired.append(i))
        env.run()
        assert fired == list(range(len(delays)))

    @given(delays=delay_lists())
    @settings(max_examples=40, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        env = Environment()
        observed = []
        for delay in delays:
            env.timeout(delay).callbacks.append(lambda e: observed.append(env.now))
        env.run()
        assert all(b >= a for a, b in zip(observed, observed[1:]))


class TestProcessJoinAlgebra:
    @given(delays=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_all_of_completes_at_max_delay(self, delays):
        env = Environment()
        condition = env.all_of([env.timeout(d) for d in delays])
        done_at = []
        condition.callbacks.append(lambda e: done_at.append(env.now))
        env.run()
        assert done_at == [max(delays)]

class TestStoreConservation:
    @given(
        items=st.lists(st.integers(), min_size=1, max_size=30),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_everything_put_is_got_in_order(self, items, capacity):
        env = Environment()
        store = Store(env, capacity=capacity)
        received = []

        def producer():
            for item in items:
                yield store.put(item)

        def consumer():
            for _ in items:
                value = yield store.get()
                received.append(value)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == items
        assert len(store) == 0

    @given(
        items=st.lists(st.integers(), min_size=1, max_size=20),
        capacity=st.integers(min_value=1, max_value=4),
        consumer_period=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, items, capacity, consumer_period):
        env = Environment()
        store = Store(env, capacity=capacity)
        max_seen = 0

        def producer():
            for item in items:
                yield store.put(item)

        def consumer():
            nonlocal max_seen
            for _ in items:
                yield env.timeout(consumer_period)
                max_seen = max(max_seen, len(store))
                yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert max_seen <= capacity
