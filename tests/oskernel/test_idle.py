"""Unit tests for the idle thread and CC6 sleep behaviour."""

import pytest

from repro.oskernel import Irq, accounting as acct
from repro.oskernel.cpu import SLEEPING

from .conftest import BusyThread


class TestSleepEntry:
    def test_idle_cores_enter_cc6_after_grace(self, kernel):
        # Run past the housekeeping daemon's initial burst; between bursts
        # every core should be in CC6.
        kernel.env.run(until=3_000_000)
        assert all(core.is_sleeping for core in kernel.cores)

    def test_cc6_residency_accumulates(self, kernel):
        kernel.env.run(until=3_000_000)
        kernel.finalize()
        assert kernel.cc6_residency(3_000_000) > 0.5

    def test_busy_core_does_not_sleep(self, kernel):
        kernel.spawn(BusyThread(kernel, "hog", 10_000_000, pinned_core=0))
        kernel.env.run(until=3_000_000)
        assert not kernel.cores[0].is_sleeping


class TestWakeup:
    def test_irq_wakes_sleeping_core(self, kernel):
        kernel.env.run(until=2_000_000)
        core = kernel.cores[1]
        assert core.is_sleeping
        handled = []
        core.deliver_irq(Irq(name="wake", handler_ns=1_000,
                             action=lambda c: handled.append(kernel.env.now)))
        kernel.env.run(until=2_300_000)
        assert handled, "IRQ was not handled after wake"
        # Exit latency was paid before handling.
        assert handled[0] >= 2_000_000 + kernel.config.cstate.exit_latency_ns

    def test_wakeup_counted(self, kernel):
        kernel.env.run(until=2_000_000)
        before = kernel.counters.get(acct.CTR_CORE_WAKEUP)
        kernel.cores[0].deliver_irq(Irq(name="wake", handler_ns=100))
        kernel.env.run(until=2_500_000)
        assert kernel.counters.get(acct.CTR_CORE_WAKEUP) > before

    def test_thread_wake_on_sleeping_core_pays_exit_latency(self, kernel):
        kernel.env.run(until=2_000_000)
        thread = kernel.spawn(BusyThread(kernel, "t", 1_000, iterations=1))
        kernel.env.run(until=2_050_000)
        # Thread cannot have finished before the CC6 exit latency elapsed.
        kernel.env.run(until=2_000_000 + kernel.config.cstate.exit_latency_ns + 500_000)
        assert thread.finished

    def test_wakeup_racing_entry_transition_is_not_lost(self, kernel):
        """A thread enqueued exactly during the CC6 entry window must still
        run (regression test for the lost-wakeup hazard)."""
        config = kernel.config.cstate
        # All cores idle; schedule a thread spawn right inside the entry window.
        entry_point = config.entry_grace_ns + config.entry_latency_ns // 2
        spawned = []
        kernel.env.call_later(
            entry_point,
            lambda: spawned.append(
                kernel.spawn(BusyThread(kernel, "racer", 10_000, iterations=1))
            ),
        )
        kernel.env.run(until=entry_point + 2_000_000)
        assert spawned and spawned[0].finished


class TestTransitionAccounting:
    def test_transition_time_recorded(self, kernel):
        kernel.env.run(until=3_000_000)
        kernel.finalize()
        assert kernel.accounting.total(acct.TRANSITION) > 0

    def test_time_conservation_idle_system(self, kernel):
        horizon = 5_000_000
        kernel.env.run(until=horizon)
        kernel.finalize()
        total = kernel.accounting.grand_total()
        assert total == pytest.approx(horizon * kernel.config.cpu.num_cores, rel=1e-9)
