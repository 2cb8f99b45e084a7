"""The CPU core model.

A :class:`Core` is a passive arbiter: the thread that currently holds it
executes everything, including hard-IRQ top halves (``service_pending_irqs``
is a generator the occupying thread runs).  The core tracks time segments
so every nanosecond lands in exactly one accounting bucket, drives the
timeslice/preemption timers, and charges kernel handlers' cache/predictor
footprints to the threads they interrupt.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple, TYPE_CHECKING

from ..profiling.ledger import CH_IPI, CH_MODE_SWITCH, CH_TOP_HALF
from . import accounting as acct
from .thread import KIND_IDLE, KIND_USER, PRIO_IDLE, PRIO_KTHREAD, PRIO_NORMAL, Thread

if TYPE_CHECKING:  # pragma: no cover
    from .irq import Irq
    from .kernel import Kernel

#: Core sleep states.
AWAKE = "awake"
SLEEPING = "cc6"
TRANSITIONING = "transition"


class Core:
    """One CPU core: runqueue, IRQ intake, accounting segments."""

    def __init__(self, kernel: "Kernel", core_id: int):
        self.kernel = kernel
        self.env = kernel.env
        self.config = kernel.config
        self.id = core_id
        self.runqueue: Dict[int, Deque[Thread]] = {
            PRIO_KTHREAD: deque(),
            PRIO_NORMAL: deque(),
            PRIO_IDLE: deque(),
        }
        self.current: Optional[Thread] = None
        self.last_thread: Optional[Thread] = None
        self.pending_irqs: Deque["Irq"] = deque()
        self.sleep_state = AWAKE
        self._segment: Optional[Tuple[str, int, Optional[Thread], float]] = None
        self._grant_generation = 0
        self._grant_time = 0
        self._need_resched = False
        self._preempt_check_armed = False

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def is_sleeping(self) -> bool:
        return self.sleep_state == SLEEPING

    def load(self) -> int:
        """Runnable non-idle threads (queued plus running)."""
        load = len(self.runqueue[PRIO_KTHREAD]) + len(self.runqueue[PRIO_NORMAL])
        if self.current is not None and self.current.kind != KIND_IDLE:
            load += 1
        return load

    def has_pending_irqs(self) -> bool:
        return bool(self.pending_irqs)

    # ------------------------------------------------------------------
    # Dispatch / preemption
    # ------------------------------------------------------------------
    def dispatch(self) -> None:
        """Grant the core to the best queued thread if it is free."""
        if self.current is not None:
            return
        thread = self._pick()
        if thread is None:
            return
        self.current = thread
        thread.core = self
        self._grant_generation += 1
        self._grant_time = self.env.now
        self._need_resched = False
        self._preempt_check_armed = False
        thread._grant.succeed(self)
        self._arm_timeslice(thread)

    def _pick(self) -> Optional[Thread]:
        for priority in (PRIO_KTHREAD, PRIO_NORMAL, PRIO_IDLE):
            queue = self.runqueue[priority]
            if queue:
                thread = queue.popleft()
                thread.queued = False
                return thread
        return None

    def relinquish(self, thread: Thread) -> None:
        """Called by a thread giving up the core (block, requeue, or exit)."""
        if self.current is thread:
            self.current = None
            self.last_thread = thread
            self._need_resched = False

    def take_context_switch_cost(self, thread: Thread) -> int:
        """Context-switch penalty for ``thread`` taking over the core."""
        if self.last_thread is thread or self.last_thread is None:
            return 0
        self.kernel.counters.bump(acct.CTR_CONTEXT_SWITCH)
        return self.config.scheduler.context_switch_ns

    def should_yield(self, thread: Thread) -> bool:
        """True if ``thread`` must give the core back before running more."""
        for priority in range(thread.priority):
            if self.runqueue[priority]:
                return True
        if self._need_resched and self.kernel.scheduler.has_work(self):
            return True
        if (
            self.runqueue[thread.priority]
            and self.env.now - self._grant_time >= self.config.scheduler.timeslice_ns
        ):
            return True
        return False

    def preempt(self, reason: str) -> None:
        """Ask the current thread to reschedule as soon as possible."""
        thread = self.current
        if thread is None:
            self.dispatch()
            return
        if thread.interruptible:
            thread.process.interrupt(reason)
        else:
            self._need_resched = True

    def request_preempt_check(self) -> None:
        """A same-priority thread was enqueued: bound its wait by the
        wakeup granularity (CFS-style wakeup preemption)."""
        if self._preempt_check_armed or self.current is None:
            return
        granularity = self.config.scheduler.wakeup_granularity_ns
        elapsed = self.env.now - self._grant_time
        delay = max(0, granularity - elapsed)
        self._preempt_check_armed = True
        self.env.call_later(delay, self._preempt_check)

    def _preempt_check(self) -> None:
        """Wakeup-preemption poll: keeps same-priority waiters' latency
        bounded by the granularity even across regrants (a waiter must not
        sit behind a full timeslice just because the core changed hands)."""
        self._preempt_check_armed = False
        current = self.current
        if current is None:
            self.dispatch()
            return
        waiting = any(
            self.runqueue[priority] for priority in range(current.priority + 1)
        )
        if not waiting:
            return
        granularity = self.config.scheduler.wakeup_granularity_ns
        elapsed = self.env.now - self._grant_time
        if elapsed >= granularity - 0.5 or self.kernel.scheduler._needs_preempt(
            self, current
        ):
            self.preempt("timeslice")
            # Re-arm so the next grantee is also bounded while contended.
            self._preempt_check_armed = True
            self.env.call_later(granularity, self._preempt_check)
        else:
            # Floor the re-arm delay: a sub-ns residue would re-fire at the
            # same instant forever (float time resolution).
            self._preempt_check_armed = True
            self.env.call_later(
                max(granularity - elapsed, 1_000), self._preempt_check
            )

    def _arm_timeslice(self, thread: Thread) -> None:
        if thread.priority == PRIO_IDLE or not self.runqueue[thread.priority]:
            return
        generation = self._grant_generation
        self.env.call_later(
            self.config.scheduler.timeslice_ns,
            lambda: self._timeslice_expired(generation),
        )

    def _timeslice_expired(self, generation: int) -> None:
        if generation != self._grant_generation or self.current is None:
            return
        if self.runqueue[self.current.priority]:
            self.preempt("timeslice")

    # ------------------------------------------------------------------
    # IRQ intake and servicing
    # ------------------------------------------------------------------
    def deliver_irq(self, irq: "Irq") -> None:
        """Queue a hard IRQ; poke whoever occupies the core."""
        self.pending_irqs.append(irq)
        self.kernel.counters.bump(f"{acct.CTR_IRQ}:{self.id}")
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.instant(
                "irq.deliver", "irq", self.id, self.env.now,
                args={"irq": irq.name, "ssr": irq.is_ssr,
                      "core_sleeping": self.is_sleeping},
            )
        thread = self.current
        if thread is not None and thread.interruptible:
            thread.process.interrupt("irq")
        # Otherwise the occupying thread notices at its next segment
        # boundary (pending IRQs are always drained before running).

    def service_pending_irqs(self, thread: Thread) -> None:
        """Generator: ``thread`` executes all queued top halves inline.

        Charges hard-IRQ time (and user<->kernel mode crossings when the
        victim is a user thread), charges each handler's cache/predictor
        footprint to the victim, and runs handler side effects.
        """
        if not self.pending_irqs:
            return
        is_user = thread.kind == KIND_USER
        ledger = self.kernel.ledger
        mode_switch_ns = self.config.scheduler.mode_switch_ns
        if is_user:
            # Attribute the entry crossing if an SSR interrupt is what the
            # drain is about to service (late arrivals charge on exit).
            if ledger.enabled:
                entry_ssr = next((i.name for i in self.pending_irqs if i.is_ssr), None)
                if entry_ssr is not None:
                    ledger.charge(
                        entry_ssr, CH_MODE_SWITCH, thread.name, self.id, mode_switch_ns
                    )
            yield from self._charge(acct.SWITCH, thread, mode_switch_ns)
        tracer = self.kernel.tracer
        last_ssr_name = None
        while self.pending_irqs:
            irq = self.pending_irqs.popleft()
            handler_ns = irq.handler_ns
            top_half_start = self.env.now
            yield from self._charge(acct.IRQ, thread, handler_ns)
            if tracer.enabled:
                tracer.span(
                    f"irq:{irq.name}", "irq", self.id,
                    top_half_start, self.env.now,
                    args={"victim": thread.name, "ssr": irq.is_ssr},
                )
                tracer.metrics.histogram("irq.handler_ns").record(handler_ns)
            if irq.is_ssr:
                last_ssr_name = irq.name
                self.kernel.charge_ssr(
                    handler_ns, CH_TOP_HALF, irq.name, self.id, victim=thread.name
                )
            elif ledger.enabled and irq.name.endswith("-ipi"):
                ledger.charge(irq.name, CH_IPI, thread.name, self.id, handler_ns)
            if irq.footprint is not None:
                self.charge_footprint(irq.footprint[0], irq.footprint[1], thread)
            if irq.action is not None:
                irq.action(self)
        if is_user:
            if ledger.enabled and last_ssr_name is not None:
                ledger.charge(
                    last_ssr_name, CH_MODE_SWITCH, thread.name, self.id, mode_switch_ns
                )
            yield from self._charge(acct.SWITCH, thread, mode_switch_ns)

    def _charge(self, mode: str, thread: Thread, ns: float) -> None:
        """Generator: burn ``ns`` of core time in ``mode`` (uninterruptibly)."""
        if ns <= 0:
            return
        self.begin_segment(mode, thread, 0.0)
        yield from thread._uninterruptible_delay(ns)
        self.end_segment()

    # ------------------------------------------------------------------
    # Cache/predictor pollution
    # ------------------------------------------------------------------
    def charge_footprint(
        self, lines: int, branches: int, victim: Optional[Thread]
    ) -> None:
        """Charge a kernel handler's cache/predictor footprint to ``victim``.

        The charge is analytic: ``footprint x coverage`` of the interrupted
        thread, repaid as stall time when it next runs (DESIGN.md §5.1).
        A handler that lands on an idle core charges no one — which is why
        idle cores absorb SSR work so cheaply (raytrace, steering)."""
        if victim is None or victim.finished:
            return
        if victim.cache_coverage <= 0 and victim.predictor_coverage <= 0:
            return
        victim.add_disturbance(
            lines * victim.cache_coverage, branches * victim.predictor_coverage
        )

    # ------------------------------------------------------------------
    # Accounting segments
    # ------------------------------------------------------------------
    def begin_segment(self, mode: str, thread: Optional[Thread], stall_ns: float) -> None:
        if self._segment is not None:
            raise RuntimeError(
                f"core {self.id}: nested segment {mode} inside {self._segment[0]}"
            )
        self._segment = (mode, self.env.now, thread, stall_ns)

    def end_segment(self) -> int:
        if self._segment is None:
            raise RuntimeError(f"core {self.id}: end_segment without begin")
        mode, start, thread, _stall = self._segment
        self._segment = None
        elapsed = self.env.now - start
        self.kernel.accounting.add(self.id, mode, elapsed)
        self._trace_segment(mode, start, thread, elapsed)
        return elapsed

    def _trace_segment(
        self, mode: str, start: int, thread: Optional[Thread], elapsed: float
    ) -> None:
        tracer = self.kernel.tracer
        if not tracer.enabled or elapsed <= 0:
            return
        tracer.span(
            mode, "segment", self.id, start, self.env.now,
            args={"thread": thread.name} if thread is not None else None,
        )

    def finalize(self) -> None:
        """Close the in-flight segment at the end of the measured horizon."""
        if self._segment is None:
            return
        mode, start, thread, stall = self._segment
        self._segment = None
        elapsed = self.env.now - start
        self.kernel.accounting.add(self.id, mode, elapsed)
        self._trace_segment(mode, start, thread, elapsed)
        if thread is not None and mode in (acct.USER, acct.KERNEL):
            productive = max(0.0, elapsed - stall)
            thread.productive_ns += productive
