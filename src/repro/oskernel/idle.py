"""The per-core idle thread and CC6 sleep management.

Each core always has a runnable idle thread at the lowest priority.  When
granted the core, it services stray IRQs, waits out the C-state entry grace
period, and drops into CC6 (paying entry latency, per AMD Family 15h
behaviour).  Interrupts or wakeups pay the CC6 exit latency — which is why
the paper observes that *sleeping* CPUs respond slightly slower to SSRs
than busy-but-preemptible ones.
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

from ..profiling.ledger import CH_CC6_WAKEUP
from ..sim import Event, Interrupt, Timeout
from . import accounting as acct
from .cpu import AWAKE, SLEEPING, TRANSITIONING
from .thread import KIND_IDLE, PRIO_IDLE, Thread

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel


class IdleThread(Thread):
    """The swapper: occupies a core when nothing else is runnable."""

    def __init__(self, kernel: "Kernel", core_id: int):
        super().__init__(
            kernel,
            name=f"swapper/{core_id}",
            kind=KIND_IDLE,
            priority=PRIO_IDLE,
            pinned_core=core_id,
        )

    def body(self) -> Generator:
        cstate = self.kernel.config.cstate
        scheduler = self.kernel.scheduler
        while True:
            if self.core is None:
                yield from self._acquire_cpu()
            core = self.core
            if core.has_pending_irqs():
                yield from core.service_pending_irqs(self)
                continue
            if scheduler.has_work(core):
                self._release_cpu(requeue=True)
                continue

            # Awake-idle: wait out the grace period before deep sleep.
            core.begin_segment(acct.IDLE, self, 0.0)
            self.interruptible = True
            try:
                yield Timeout(self.env, cstate.entry_grace_ns)
                grace_elapsed = True
            except Interrupt:
                grace_elapsed = False
            finally:
                self.interruptible = False
            core.end_segment()
            if not grace_elapsed:
                continue  # handle whatever woke us at the top of the loop

            # Enter CC6.
            core.sleep_state = TRANSITIONING
            yield from core.burn(acct.TRANSITION, self, cstate.entry_latency_ns)
            if core.has_pending_irqs() or scheduler.has_work(core):
                # A wakeup raced the entry transition: abort the sleep
                # instead of parking with work queued (lost-wakeup hazard).
                core.sleep_state = AWAKE
                continue
            core.sleep_state = SLEEPING
            tracer = self.kernel.tracer
            if tracer.enabled:
                tracer.instant("cc6.enter", "cstate", core.id, self.env.now)
                tracer.metrics.counter("cc6.entries").inc()

            core.begin_segment(acct.CC6, self, 0.0)
            self.interruptible = True
            try:
                yield Event(self.env)  # sleep until something interrupts us
            except Interrupt:
                pass
            finally:
                self.interruptible = False
            core.end_segment()

            # Exit latency: the wake reason (IRQ/resched) waits this long.
            self.kernel.counters.bump(acct.CTR_CORE_WAKEUP)
            if tracer.enabled:
                tracer.instant("cc6.exit", "cstate", core.id, self.env.now)
            ledger = self.kernel.ledger
            if ledger.enabled:
                # If an SSR interrupt is what woke this core, the exit
                # latency is interference it caused (paid in TRANSITION
                # mode, hence a side channel, not a service channel).
                ssr_irq = next((i for i in core.pending_irqs if i.is_ssr), None)
                if ssr_irq is not None:
                    ledger.charge(
                        ssr_irq.name, CH_CC6_WAKEUP, self.name, core.id,
                        cstate.exit_latency_ns,
                    )
            core.sleep_state = TRANSITIONING
            yield from core.burn(acct.TRANSITION, self, cstate.exit_latency_ns)
            core.sleep_state = AWAKE
