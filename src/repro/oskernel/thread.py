"""Schedulable threads and the CPU-grant protocol.

A :class:`Thread` is a simulation process that cooperates with the
scheduler: it asks for a CPU, runs in *segments* (interrupted by hard IRQs,
preemption, or timeslice expiry), and releases the core when blocking.

Interference plumbing lives here too: when a kernel SSR handler pollutes a
core's cache/predictor, the disturbance is charged to the victim thread as
*stall time* at the start of its next run segment (the paper's indirect
overhead — segment 'b' of Figure 2), and tallied for the Figure 5 counters.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from ..profiling.ledger import CH_POLLUTION
from ..sim import Event, Interrupt, Timeout
from . import accounting as acct

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .cpu import Core
    from .kernel import Kernel

#: Priorities (lower value runs first).
PRIO_KTHREAD = 0
PRIO_NORMAL = 1
PRIO_IDLE = 2

#: Thread kinds.
KIND_USER = "user"
KIND_KTHREAD = "kthread"
KIND_KWORKER = "kworker"
KIND_DAEMON = "daemon"
KIND_IDLE = "idle"

#: Accounting mode for each thread kind's own execution.
_KIND_MODE = {
    KIND_USER: acct.USER,
    KIND_KTHREAD: acct.KERNEL,
    KIND_KWORKER: acct.KERNEL,
    KIND_DAEMON: acct.KERNEL,
    KIND_IDLE: acct.IDLE,
}


class Thread:
    """A schedulable execution context.

    Subclasses implement :meth:`body` as a generator that uses
    :meth:`run_for` to consume CPU time and :meth:`wait` / :meth:`sleep`
    to block off-CPU.
    """

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        kind: str = KIND_USER,
        priority: int = PRIO_NORMAL,
        pinned_core: Optional[int] = None,
    ):
        if kind not in _KIND_MODE:
            raise ValueError(f"unknown thread kind {kind!r}")
        self.kernel = kernel
        self.env = kernel.env
        self.name = name
        self.kind = kind
        self.priority = priority
        self.pinned_core = pinned_core
        self.mode = _KIND_MODE[kind]
        self._cpu = kernel.config.cpu

        self.process = None
        self.started = False
        self.finished = False
        #: True while sitting in a runqueue awaiting a grant.
        self.queued = False
        #: Core currently granted to this thread (None while blocked/queued).
        self.core: Optional["Core"] = None
        #: Last core this thread ran on (wake-placement affinity).
        self.last_core_id: Optional[int] = None
        #: Set by a waker running on some core just before waking this
        #: thread, so the scheduler can attribute (and IPI-charge) the wake.
        self.wake_origin_core: Optional[int] = None
        #: True only while suspended at an interruptible yield point.
        self.interruptible = False
        self._grant: Optional[Event] = None

        # --- interference bookkeeping -------------------------------
        #: Fraction of the L1 / predictor a kernel handler's footprint
        #: overlaps with this thread's state (0 for kernel threads: they
        #: have no performance-critical warm state to lose).
        self.cache_coverage = 0.0
        self.predictor_coverage = 0.0
        #: Probability an evicted line/entry would have been reused;
        #: None falls back to the config default.
        self.reuse_probability: Optional[float] = None
        self._pending_lines = 0.0
        self._pending_entries = 0.0
        self._stall_carry_ns = 0.0
        #: Total productive CPU time (excludes IRQs, switches, stalls).
        self.productive_ns = 0.0
        #: Stall time repaid for kernel pollution of cache/predictor.
        self.pollution_stall_ns = 0.0
        #: Estimated extra misses / mispredicts caused by SSR handlers.
        self.extra_misses = 0.0
        self.extra_mispredicts = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Thread":
        """Create the simulation process and make the thread runnable."""
        if self.started:
            raise RuntimeError(f"thread {self.name} already started")
        self.started = True
        self.process = self.env.process(self._trampoline())
        self.process.name = self.name
        return self

    def body(self) -> Generator:
        """Override: the thread's behaviour (a generator)."""
        raise NotImplementedError

    def _trampoline(self) -> Generator:
        try:
            yield from self.body()
        finally:
            self.finished = True
            if self.core is not None:
                self._release_cpu(requeue=False)

    # ------------------------------------------------------------------
    # Pollution API (called by Core when SSR handlers disturb our state)
    # ------------------------------------------------------------------
    def add_disturbance(self, lines_evicted: float, entries_retrained: float) -> None:
        """Record state this thread lost to a kernel handler window."""
        self._pending_lines += lines_evicted
        self._pending_entries += entries_retrained

    def _take_stall_ns(self) -> float:
        """Convert pending disturbance into stall ns; update Fig. 5 counters."""
        if not self._pending_lines and not self._pending_entries:
            # Nothing disturbed us since the last segment: no new stall.
            stall = self._stall_carry_ns
            self._stall_carry_ns = 0.0
            return stall
        cpu = self._cpu
        reuse = (
            self.reuse_probability
            if self.reuse_probability is not None
            else cpu.pollution_reuse_probability
        )
        scale = reuse * cpu.pollution_amplification
        extra_misses = self._pending_lines * scale
        extra_mispredicts = self._pending_entries * scale
        self._pending_lines = 0.0
        self._pending_entries = 0.0
        self.extra_misses += extra_misses
        self.extra_mispredicts += extra_mispredicts
        stall_cycles = (
            extra_misses * cpu.l1_miss_penalty_cycles
            + extra_mispredicts * cpu.branch_mispredict_penalty_cycles
        )
        new_stall = cpu.cycles_to_ns(stall_cycles)
        self.pollution_stall_ns += new_stall
        if new_stall > 0:
            ledger = self.kernel.ledger
            if ledger.enabled:
                core = self.core
                core_id = core.id if core is not None else (self.last_core_id or 0)
                # The handler that evicted our state is long gone, so the
                # cause is attributed generically to kernel SSR handling.
                ledger.charge("uarch", CH_POLLUTION, self.name, core_id, new_stall)
        stall = self._stall_carry_ns + new_stall
        self._stall_carry_ns = 0.0
        return stall

    # ------------------------------------------------------------------
    # CPU protocol
    # ------------------------------------------------------------------
    def run_for(self, duration_ns: float, on_progress=None) -> Generator:
        """Consume ``duration_ns`` of *productive* CPU time.

        Wall-clock time may be longer: hard IRQs, preemption, context
        switches, and pollution stalls all extend it.  ``on_progress`` is
        called with each chunk of productive nanoseconds as it completes,
        so fixed-horizon experiments see partially-completed work.
        """
        env = self.env
        remaining = float(duration_ns)
        # Sub-nanosecond residue (stall times are fractional cycles) must
        # terminate the loop: scheduling a ~0ns timeout would spin forever.
        while remaining > 0.5:
            if self.core is None:
                yield from self._acquire_cpu()
            core = self.core
            # Service IRQs that arrived while we were off-CPU or in-switch.
            if core.pending_irqs:
                yield from core.service_pending_irqs(self)
            if core.should_yield(self):
                self._release_cpu(requeue=True)
                continue
            stall = self._take_stall_ns()
            segment = max(remaining + stall, 1.0)
            core.begin_segment(self.mode, self, stall)
            start = env.now
            self.interruptible = True
            try:
                yield Timeout(env, segment)
                interrupted_by = None
            except Interrupt as intr:
                interrupted_by = intr.cause
            finally:
                self.interruptible = False
            elapsed = env.now - start
            core.end_segment()
            productive = max(0.0, elapsed - stall)
            self._stall_carry_ns = max(0.0, stall - elapsed)
            remaining -= productive
            self.productive_ns += productive
            if on_progress is not None and productive > 0:
                on_progress(productive)
            if interrupted_by is None:
                continue
            # Requeue only if there is work left: a preemption landing at
            # the exact instant the requested duration completes must NOT
            # leave a stale runqueue entry behind (a later dispatch would
            # grant the core to this thread while it is blocked elsewhere,
            # stalling the core until it happens to wake).
            still_running = remaining > 0.5
            if interrupted_by == "irq":
                yield from core.service_pending_irqs(self)
                if core.should_yield(self):
                    self._release_cpu(requeue=still_running)
            elif interrupted_by in ("resched", "timeslice"):
                self._release_cpu(requeue=still_running)
            # Unknown causes: treat as a spurious wake and loop.
        return None

    def wait(self, event: Event) -> Generator:
        """Block off-CPU until ``event`` fires; returns its value."""
        if self.core is not None:
            self._release_cpu(requeue=False)
        while True:
            try:
                value = yield event
                return value
            except Interrupt:
                # Spurious (raced) interrupt while blocked: the event we
                # were waiting on is still pending, so wait again.
                if event.processed:
                    return event.value if event.ok else None
                continue

    def sleep(self, ns: float) -> Generator:
        """Block off-CPU for ``ns`` simulated nanoseconds."""
        yield from self.wait(Timeout(self.env, ns))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _acquire_cpu(self) -> Generator:
        scheduler = self.kernel.scheduler
        while self.core is None:
            if not self.queued:
                origin, self.wake_origin_core = self.wake_origin_core, None
                scheduler.enqueue(self, origin_core_id=origin)
            try:
                yield self._grant
            except Interrupt:
                # Raced interrupt while waiting for a grant: re-check state.
                continue
        core = self.core
        switch_ns = core.take_context_switch_cost(self)
        if switch_ns:
            yield from core.burn(acct.SWITCH, self, switch_ns)

    def _release_cpu(self, requeue: bool) -> None:
        core = self.core
        if core is None:
            return
        self.core = None
        self.last_core_id = core.id
        core.relinquish(self)
        if requeue and not self.finished:
            self.kernel.scheduler.enqueue(self)
        core.dispatch()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Thread {self.name} kind={self.kind} prio={self.priority}>"
