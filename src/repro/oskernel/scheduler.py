"""Thread placement and wakeup/preemption policy.

The placement rules encode the Linux behaviours the paper's interference
story depends on:

* **Bottom-half kthreads** are wake-balanced in rotation across all cores —
  the scheduler's idle-core search keeps dragging the IOMMU driver's kthread
  onto (possibly sleeping) cores, waking them with resched IPIs.  This is
  what makes the default configuration both spread interference everywhere
  and destroy CC6 residency (Sections IV-B/IV-C, 477x IPI increase).
* **User threads** have sticky affinity: they stay on their last core unless
  it is contended, so PARSEC's one-thread-per-core layout is stable.
* **Pinned threads** (steering mitigation, per-core kworkers) always go to
  their core.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..sim import Event
from .cpu import Core
from .thread import KIND_IDLE, KIND_KTHREAD, PRIO_KTHREAD, PRIO_NORMAL, Thread

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel


class Scheduler:
    """Global scheduler over per-core runqueues."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._kthread_rotation = 0

    # ------------------------------------------------------------------
    # Wakeup path
    # ------------------------------------------------------------------
    def enqueue(self, thread: Thread, origin_core_id: Optional[int] = None) -> None:
        """Make ``thread`` runnable; place it and kick the chosen core.

        ``origin_core_id`` identifies the core whose execution performed the
        wakeup (e.g., a top-half handler scheduling the bottom half).  A
        cross-core wakeup that must disturb the target core is delivered via
        a resched IPI, which is counted — the paper's 477x IPI observation.
        """
        if thread.finished or thread.queued or thread.core is not None:
            return
        thread._grant = Event(self.kernel.env)
        thread.queued = True
        core = self._place(thread)
        core.runqueue[thread.priority].append(thread)
        self._kick(core, thread, origin_core_id)

    def _place(self, thread: Thread) -> "Core":
        cores = self.kernel.cores
        if thread.pinned_core is not None:
            return cores[thread.pinned_core]
        if thread.kind == KIND_KTHREAD:
            # Wake-balance rotation: the idle-core search lands somewhere new
            # almost every wakeup (idle and sleeping cores look best).
            self._kthread_rotation = (self._kthread_rotation + 1) % len(cores)
            return cores[self._kthread_rotation]
        last = thread.last_core_id
        if last is not None and self._core_is_quiet(cores[last]):
            return cores[last]
        # Shallow-idle preference: land on the least-loaded awake core
        # (waking a CC6 core costs latency and power), like Linux's
        # select_idle_sibling biasing away from deep idle states.  Cores
        # are in id order, so a strict ``<`` breaks load ties by lowest id.
        best = None
        best_load = 0
        for core in cores:
            if core.is_sleeping:
                continue
            load = core.load()
            if best is None or load < best_load:
                best, best_load = core, load
        if best is None:  # every core sleeps
            best = min(cores, key=Core.load)
        return best

    @staticmethod
    def _core_is_quiet(core: "Core") -> bool:
        """True if placing here wins immediately (idle, empty queues)."""
        if core.runqueue[PRIO_KTHREAD] or core.runqueue[PRIO_NORMAL]:
            return False
        return core.current is None or core.current.kind == KIND_IDLE

    def _kick(self, core: "Core", thread: Thread, origin_core_id: Optional[int]) -> None:
        sleeping = core.is_sleeping
        current = core.current
        preempts = current is not None and thread.priority < current.priority
        if (
            (sleeping or preempts)
            and origin_core_id is not None
            and origin_core_id != core.id
        ):
            self.kernel.irq_controller.send_resched_ipi(core.id, origin_core_id)
            return
        if sleeping:
            # Waking a CC6 core always costs an interrupt, even when the
            # waker's core is unknown (timer-driven wakeups) — this is the
            # baseline IPI traffic the SSR-driven 477x increase sits on.
            self.kernel.irq_controller.send_wake_ipi(core.id)
            return
        if current is None:
            core.dispatch()
        elif preempts:
            core.preempt("resched")
        elif current.priority == thread.priority:
            core.request_preempt_check()

    # ------------------------------------------------------------------
    # Queries used by cores and idle threads
    # ------------------------------------------------------------------
    def has_work(self, core: "Core") -> bool:
        """True if a non-idle thread is queued on ``core``."""
        return bool(core.runqueue[PRIO_KTHREAD] or core.runqueue[PRIO_NORMAL])
