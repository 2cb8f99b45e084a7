"""GPU-to-process signals (the ``S_SENDMSG`` path, Section II-C).

Signals skip the IOMMU's PPR machinery: the GPU instruction raises an
interrupt directly, and the host chain delivers the signal to the target
process.  They reuse the same top-half / worker structure with the low
Table I service cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..iommu.request import SSR_CATALOG, LatencyStats
from ..oskernel.irq import Irq
from ..oskernel.workqueue import WorkItem
from ..sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..oskernel.kernel import Kernel


class SignalPath:
    """Delivers GPU signal SSRs through the host interrupt chain."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.env = kernel.env
        self.kind = SSR_CATALOG["signal"]
        self.latency = LatencyStats()
        self.signals_delivered = 0

    def send(self) -> Event:
        """Raise a signal SSR; the returned event fires on delivery."""
        done = self.env.event()
        issued_at = self.env.now
        os_path = self.kernel.config.os_path

        def top_half_action(core) -> None:
            item = WorkItem(
                name="gpu-signal",
                ssr_kind="signal",
                service_ns=self.kind.service_ns + os_path.response_ns,
                on_done=lambda kernel: self._complete(done, issued_at),
                is_ssr=True,
                footprint=os_path.worker_footprint,
            )
            self.kernel.workqueues.queue_work(core.id, item)

        irq = Irq(
            name="gpu-signal",
            handler_ns=os_path.top_half_ns,
            action=top_half_action,
            is_ssr=True,
            footprint=os_path.top_half_footprint,
        )
        self.kernel.irq_controller.raise_msi(irq)
        return done

    def _complete(self, done: Event, issued_at: int) -> None:
        self.latency.record(self.env.now - issued_at)
        self.signals_delivered += 1
        self.kernel.ssr_accounting.note_completion()
        done.succeed()
