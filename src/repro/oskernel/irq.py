"""Hard interrupts, MSI delivery policies, and inter-processor interrupts.

The delivery policy models how the IOMMU's MSI reaches a core:

* :class:`SpreadDeliveryPolicy` — lowest-priority-style arbitration that
  round-robins over *awake* cores (a core in CC6 does not participate; if
  everything sleeps, one core is woken).  Combined with the bottom-half
  kthread's wake-balance rotation (see scheduler), interrupts end up evenly
  distributed across every core — the behaviour the paper measured via
  ``/proc/interrupts``.
* :class:`SingleCoreDeliveryPolicy` — the Section V-A steering mitigation:
  all SSR interrupts hit one core (IOMMU MSI configuration registers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, TYPE_CHECKING

from . import accounting as acct

if TYPE_CHECKING:  # pragma: no cover
    from .cpu import Core
    from .kernel import Kernel


@dataclass
class Irq:
    """One hard interrupt: handler cost, uarch footprint, side effects."""

    name: str
    handler_ns: float
    #: Called (with the servicing core) after the handler time elapses.
    action: Optional[Callable[["Core"], None]] = None
    #: Counts toward SSR servicing time (QoS accounting) when True.
    is_ssr: bool = False
    #: (cache accesses, branches) pushed through the servicing core.
    footprint: Optional[Tuple[int, int]] = None
    payload: object = None


class DeliveryPolicy:
    """Chooses which core an MSI is delivered to."""

    def select(self, kernel: "Kernel") -> "Core":
        raise NotImplementedError


class SpreadDeliveryPolicy(DeliveryPolicy):
    """Lowest-priority-style MSI arbitration.

    Awake *idle* cores win first (they are at the lowest interrupt
    priority), then awake busy cores in rotation (which is what produces
    the even ``/proc/interrupts`` distribution the paper measured when all
    cores run application threads); a sleeping core is woken only when
    everything sleeps."""

    def __init__(self):
        self._rotation = 0
        self._last_idle_target: Optional[int] = None

    @staticmethod
    def _is_idle(core: "Core") -> bool:
        current = core.current
        return current is None or current.kind == "idle"

    def select(self, kernel: "Kernel") -> "Core":
        cores = kernel.cores
        n = len(cores)
        # Sticky idle preference: keep hitting the same recently-idle core
        # so interrupt handling stays localized and other cores can sleep.
        last = self._last_idle_target
        if last is not None:
            candidate = cores[last]
            if not candidate.is_sleeping and self._is_idle(candidate):
                return candidate
        awake_idle = None
        awake_busy = None
        for offset in range(1, n + 1):
            candidate = cores[(self._rotation + offset) % n]
            if candidate.is_sleeping:
                continue
            if self._is_idle(candidate) and awake_idle is None:
                awake_idle = candidate
            elif awake_busy is None:
                awake_busy = candidate
        if awake_idle is not None:
            self._last_idle_target = awake_idle.id
            return awake_idle
        if awake_busy is not None:
            # All awake cores run application threads: rotate for the even
            # distribution the paper measured under CPU load.
            self._rotation = awake_busy.id
            return awake_busy
        # Everyone is asleep: wake cores in rotation.
        self._rotation = (self._rotation + 1) % n
        self._last_idle_target = self._rotation
        return cores[self._rotation]


class RoundRobinAllDeliveryPolicy(DeliveryPolicy):
    """Naive hardware round-robin over every core, sleeping or not.

    An ablation of the default lowest-priority arbitration: this policy
    wakes CC6 cores for interrupt delivery, which destroys sleep residency
    for even moderate SSR rates (see tests and DESIGN.md 5.1)."""

    def __init__(self):
        self._rotation = 0

    def select(self, kernel: "Kernel") -> "Core":
        cores = kernel.cores
        self._rotation = (self._rotation + 1) % len(cores)
        return cores[self._rotation]


class SingleCoreDeliveryPolicy(DeliveryPolicy):
    """Steer every SSR interrupt to one core (mitigation, Section V-A)."""

    def __init__(self, target: int):
        self.target = target

    def select(self, kernel: "Kernel") -> "Core":
        return kernel.cores[self.target]


class InterruptController:
    """Delivers device MSIs and inter-processor interrupts to cores."""

    def __init__(self, kernel: "Kernel", policy: DeliveryPolicy):
        self.kernel = kernel
        self.policy = policy

    def raise_msi(self, irq: Irq) -> "Core":
        """Deliver a device interrupt according to the steering policy."""
        core = self.policy.select(self.kernel)
        if irq.is_ssr:
            self.kernel.counters.bump(acct.CTR_SSR_INTERRUPT)
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.instant(
                "msi.raise", "irq", core.id, self.kernel.env.now,
                args={"irq": irq.name, "ssr": irq.is_ssr},
            )
            tracer.metrics.counter("msi.raised").inc()
        core.deliver_irq(irq)
        return core

    def send_resched_ipi(self, target_core_id: int, origin_core_id: int) -> None:
        """Cross-core reschedule kick (counted; the paper saw a 477x jump)."""
        kernel = self.kernel
        os_path = kernel.config.os_path
        kernel.counters.bump(f"{acct.CTR_IPI}:{target_core_id}")
        tracer = kernel.tracer
        if tracer.enabled:
            tracer.instant(
                "ipi.send", "ipi", target_core_id, kernel.env.now,
                args={"kind": "resched", "origin": origin_core_id},
            )
            tracer.metrics.counter("ipi.sent").inc()
        # The sender's cost of putting the IPI on the wire is part of its
        # already-charged handler time.
        irq = Irq(
            name="resched-ipi",
            handler_ns=os_path.ipi_receive_ns,
            action=_resched_action,
            is_ssr=False,
            footprint=None,
        )
        kernel.cores[target_core_id].deliver_irq(irq)

    def send_wake_ipi(self, target_core_id: int) -> None:
        """Wake a sleeping core on behalf of an anonymous context (timers)."""
        kernel = self.kernel
        kernel.counters.bump(f"{acct.CTR_IPI}:{target_core_id}")
        tracer = kernel.tracer
        if tracer.enabled:
            tracer.instant(
                "ipi.send", "ipi", target_core_id, kernel.env.now,
                args={"kind": "wake"},
            )
            tracer.metrics.counter("ipi.sent").inc()
        irq = Irq(
            name="wake-ipi",
            handler_ns=kernel.config.os_path.ipi_receive_ns,
            action=_resched_action,
        )
        kernel.cores[target_core_id].deliver_irq(irq)


def _resched_action(core: "Core") -> None:
    """On IPI receipt: reschedule if someone better is waiting."""
    current = core.current
    if current is None:
        core.dispatch()
        return
    scheduler = core.kernel.scheduler
    if scheduler.has_work(core) and (
        current.kind == "idle"
        or any(core.runqueue[p] for p in range(current.priority))
        or core.runqueue[current.priority]
    ):
        core.preempt("resched")
