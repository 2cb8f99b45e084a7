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
from typing import Deque, List, Optional, Tuple, TYPE_CHECKING

from ..profiling.ledger import CH_IPI, CH_MODE_SWITCH, CH_TOP_HALF
from ..sim import Interrupt, Timeout
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
        self.id = core_id
        #: One FIFO per priority, indexed by it (PRIO_KTHREAD .. PRIO_IDLE).
        self.runqueue: List[Deque[Thread]] = [deque() for _ in range(PRIO_IDLE + 1)]
        self.current: Optional[Thread] = None
        self.last_thread: Optional[Thread] = None
        self.pending_irqs: Deque["Irq"] = deque()
        self.sleep_state = AWAKE
        self._segment: Optional[Tuple[str, int, Optional[Thread], float]] = None
        self._grant_generation = 0
        self._grant_time = 0
        self._need_resched = False
        self._preempt_check_armed = False
        #: This core's ``/proc/interrupts``-style counter names.
        self.irq_counter = f"{acct.CTR_IRQ}:{core_id}"
        self.ipi_counter = f"{acct.CTR_IPI}:{core_id}"
        # Read on every event, so fetched once: the config is frozen and
        # the kernel's sinks are fixed when it builds its cores.
        scheduler = kernel.config.scheduler
        self._timeslice_ns = scheduler.timeslice_ns
        self._granularity_ns = scheduler.wakeup_granularity_ns
        self._context_switch_ns = scheduler.context_switch_ns
        self._mode_switch_ns = scheduler.mode_switch_ns
        self._accounting = kernel.accounting
        self._counters = kernel.counters
        self._tracer = kernel.tracer
        # Timer callbacks, bound once: arming a timer builds no closure.
        self._preempt_poll = self._preempt_check
        self._timeslice_cb = self._timeslice_expired

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
        for queue in self.runqueue:
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
        self._counters.bump(acct.CTR_CONTEXT_SWITCH)
        return self._context_switch_ns

    def has_waiter(self, priority: int) -> bool:
        """True if a thread of ``priority`` or a better one is queued here."""
        runqueue = self.runqueue
        for better in range(priority + 1):
            if runqueue[better]:
                return True
        return False

    def should_yield(self, thread: Thread) -> bool:
        """True if ``thread`` must give the core back before running more."""
        runqueue = self.runqueue
        for priority in range(thread.priority):
            if runqueue[priority]:
                return True
        if self._need_resched and self.kernel.scheduler.has_work(self):
            return True
        if (
            runqueue[thread.priority]
            and self.env.now - self._grant_time >= self._timeslice_ns
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
        granularity = self._granularity_ns
        elapsed = self.env.now - self._grant_time
        delay = max(0, granularity - elapsed)
        self._preempt_check_armed = True
        Timeout(self.env, delay).callbacks.append(self._preempt_poll)

    def _preempt_check(self, _event) -> None:
        """Wakeup-preemption poll: keeps same-priority waiters' latency
        bounded by the granularity even across regrants (a waiter must not
        sit behind a full timeslice just because the core changed hands)."""
        self._preempt_check_armed = False
        current = self.current
        if current is None:
            self.dispatch()
            return
        if not self.has_waiter(current.priority):
            return
        granularity = self._granularity_ns
        elapsed = self.env.now - self._grant_time
        if elapsed >= granularity - 0.5:
            self.preempt("timeslice")
            # Re-arm so the next grantee is also bounded while contended.
            delay = granularity
        else:
            # Floor the re-arm delay: a sub-ns residue would re-fire at the
            # same instant forever (float time resolution).
            delay = max(granularity - elapsed, 1_000)
        self._preempt_check_armed = True
        Timeout(self.env, delay).callbacks.append(self._preempt_poll)

    def _arm_timeslice(self, thread: Thread) -> None:
        if thread.priority == PRIO_IDLE or not self.runqueue[thread.priority]:
            return
        expiry = Timeout(self.env, self._timeslice_ns, self._grant_generation)
        expiry.callbacks.append(self._timeslice_cb)

    def _timeslice_expired(self, expiry: Timeout) -> None:
        if expiry.value != self._grant_generation or self.current is None:
            return
        if self.runqueue[self.current.priority]:
            self.preempt("timeslice")

    # ------------------------------------------------------------------
    # IRQ intake and servicing
    # ------------------------------------------------------------------
    def deliver_irq(self, irq: "Irq") -> None:
        """Queue a hard IRQ; poke whoever occupies the core."""
        self.pending_irqs.append(irq)
        self._counters.bump(self.irq_counter)
        tracer = self._tracer
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
        mode_switch_ns = self._mode_switch_ns
        if is_user:
            # Attribute the entry crossing if an SSR interrupt is what the
            # drain is about to service (late arrivals charge on exit).
            if ledger.enabled:
                entry_ssr = next((i.name for i in self.pending_irqs if i.is_ssr), None)
                if entry_ssr is not None:
                    ledger.charge(
                        entry_ssr, CH_MODE_SWITCH, thread.name, self.id, mode_switch_ns
                    )
            if mode_switch_ns > 0:
                yield from self.burn(acct.SWITCH, thread, mode_switch_ns)
        tracer = self._tracer
        last_ssr_name = None
        while self.pending_irqs:
            irq = self.pending_irqs.popleft()
            handler_ns = irq.handler_ns
            top_half_start = self.env.now
            if handler_ns > 0:
                yield from self.burn(acct.IRQ, thread, handler_ns)
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
            if mode_switch_ns > 0:
                yield from self.burn(acct.SWITCH, thread, mode_switch_ns)

    def burn(self, mode: str, thread: Thread, ns: float) -> None:
        """Generator: ``thread`` burns ``ns`` of core time as one ``mode``
        segment, absorbing (but not losing) interrupts."""
        self.begin_segment(mode, thread, 0.0)
        env = self.env
        deadline = env.now + ns
        while env.now < deadline - 0.5:
            try:
                yield Timeout(env, deadline - env.now)
            except Interrupt:
                continue
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
        segment = self._segment
        if segment is None:
            raise RuntimeError(f"core {self.id}: end_segment without begin")
        mode, start, thread, _stall = segment
        self._segment = None
        elapsed = self.env.now - start
        self._accounting.add(self.id, mode, elapsed)
        if self._tracer.enabled and elapsed > 0:
            self._trace_segment(mode, start, thread)
        return elapsed

    def _trace_segment(self, mode: str, start: int, thread: Optional[Thread]) -> None:
        self._tracer.span(
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
        self._accounting.add(self.id, mode, elapsed)
        if self._tracer.enabled and elapsed > 0:
            self._trace_segment(mode, start, thread)
        if thread is not None and mode in (acct.USER, acct.KERNEL):
            productive = max(0.0, elapsed - stall)
            thread.productive_ns += productive
