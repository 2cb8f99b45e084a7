"""Unit tests for thread placement and preemption policy."""

import pytest

from repro.oskernel import accounting as acct
from repro.oskernel.thread import (
    KIND_KTHREAD,
    PRIO_KTHREAD,
    PRIO_NORMAL,
    Thread,
)

from .conftest import BusyThread


def _user_cores(kernel):
    """Cores that accounted any USER time (the test's thread is the only
    user thread, so these are exactly the cores it ran segments on)."""
    return {
        core.id
        for core in kernel.cores
        if kernel.accounting.core_mode(core.id, acct.USER) > 0
    }


class TestPlacement:
    def test_threads_spread_across_cores(self, kernel):
        threads = [
            kernel.spawn(BusyThread(kernel, f"t{i}", 10_000_000)) for i in range(4)
        ]
        kernel.env.run(until=1_000_000)
        cores = {t.core.id for t in threads if t.core is not None}
        assert len(cores) == 4

    def test_pinned_thread_stays_on_core(self, kernel):
        thread = kernel.spawn(
            BusyThread(kernel, "pinned", 100_000, sleep_ns=50_000, iterations=20,
                       pinned_core=2)
        )
        kernel.env.run(until=10_000_000)
        assert thread.loops_done == 20
        assert _user_cores(kernel) == {2}

    def test_affinity_keeps_thread_on_last_core(self, kernel):
        thread = kernel.spawn(
            BusyThread(kernel, "sticky", 200_000, sleep_ns=100_000, iterations=10)
        )
        kernel.env.run(until=10_000_000)
        assert thread.loops_done == 10
        assert len(_user_cores(kernel)) == 1

    def test_kthread_rotation_visits_all_cores(self, kernel):
        """Wake-balance rotation drags kthreads across every core — the
        mechanism behind the paper's IPI storm and CC6 destruction."""

        class Bouncer(Thread):
            def __init__(self, kernel):
                super().__init__(kernel, "bouncer", kind=KIND_KTHREAD,
                                 priority=PRIO_KTHREAD)
                self.cores_seen = set()

            def body(self):
                for _ in range(12):
                    yield from self.run_for(10_000)
                    self.cores_seen.add(self.core.id if self.core else self.last_core_id)
                    if self.core is not None:
                        self._release_cpu(requeue=False)
                    yield from self.sleep(50_000)

        bouncer = kernel.spawn(Bouncer(kernel))
        kernel.env.run(until=5_000_000)
        assert bouncer.cores_seen == {0, 1, 2, 3}


class TestPreemption:
    def test_kthread_preempts_user_immediately(self, kernel):
        user = kernel.spawn(BusyThread(kernel, "user", 20_000_000))
        kernel.env.run(until=1_000_000)

        class Urgent(Thread):
            done_at = None

            def __init__(self, kernel):
                super().__init__(kernel, "urgent", kind=KIND_KTHREAD,
                                 priority=PRIO_KTHREAD)

            def body(self):
                yield from self.run_for(5_000)
                Urgent.done_at = self.env.now

        # Fill every core with users so the kthread must preempt.
        for i in range(3):
            kernel.spawn(BusyThread(kernel, f"extra{i}", 20_000_000))
        kernel.env.run(until=2_000_000)
        kernel.spawn(Urgent(kernel))
        kernel.env.run(until=3_000_000)
        assert Urgent.done_at is not None
        assert Urgent.done_at - 2_000_000 < 100_000  # near-immediate dispatch

    def test_same_priority_wakeup_bounded_by_granularity(self, kernel):
        for i in range(4):
            kernel.spawn(BusyThread(kernel, f"hog{i}", 50_000_000))
        kernel.env.run(until=2_000_000)
        waiter = kernel.spawn(BusyThread(kernel, "late", 10_000, iterations=1))
        kernel.env.run(until=4_000_000)
        assert waiter.finished
        granularity = kernel.config.scheduler.wakeup_granularity_ns
        # Started within a few granularity periods despite 4 busy hogs.
        assert waiter.productive_ns > 0

    def test_timeslice_rotation_shares_core(self, kernel):
        # Two threads pinned to one core must both make progress.
        a = kernel.spawn(BusyThread(kernel, "a", 30_000_000, pinned_core=0))
        b = kernel.spawn(BusyThread(kernel, "b", 30_000_000, pinned_core=0))
        kernel.env.run(until=12_000_000)
        kernel.finalize()
        assert a.productive_ns > 2_000_000
        assert b.productive_ns > 2_000_000
        total = a.productive_ns + b.productive_ns
        assert total == pytest.approx(12_000_000, rel=0.1)
