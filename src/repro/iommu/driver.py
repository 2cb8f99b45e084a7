"""The host IOMMU driver: top half, bottom half, and worker plumbing.

Implements the paper's Figure 1 flow on top of the OS model:

* **Split mode (default, like ``amd_iommu_v2``)** — the MSI lands on a core
  and runs a short top half (3), which wakes the single bottom-half kthread
  (3a, an IPI when cross-core) and acks the IOMMU (3b).  The kthread drains
  the PPR log, pre-processes each request (4a), and queues one work item
  per request to the local kworker (4b).  The kworker services the fault
  (5) and completes it back to the IOMMU (6).
* **Monolithic mode (Section V-C)** — the bottom-half pre-processing runs
  inline in the hard-IRQ top half: no kthread, no wake IPI, no scheduling
  delay, but more time in interrupt context on the victim core.
"""

from __future__ import annotations

from typing import Generator, List, TYPE_CHECKING

from ..oskernel.thread import KIND_KTHREAD, PRIO_KTHREAD, Thread
from ..profiling.ledger import CH_BOTTOM_HALF
from ..oskernel.irq import Irq
from ..oskernel.workqueue import WorkItem
from ..sim import Store
from .iommu import Iommu
from .request import SsrRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..oskernel.cpu import Core
    from ..oskernel.kernel import Kernel


class BottomHalfThread(Thread):
    """The driver's single bottom-half kthread (split mode only)."""

    def __init__(self, kernel: "Kernel", driver: "IommuDriver"):
        mitigation = kernel.config.mitigation
        pinned = mitigation.steering_target if mitigation.steer_to_single_core else None
        super().__init__(
            kernel,
            name="iommu/bh",
            kind=KIND_KTHREAD,
            priority=PRIO_KTHREAD,
            pinned_core=pinned,
        )
        self.driver = driver
        self.kicks = Store(kernel.env)
        self.batches_handled = 0

    def body(self) -> Generator:
        dispatch_ns = self.kernel.config.os_path.bottom_half_dispatch_ns
        while True:
            yield from self.wait(self.kicks.get())
            # Scheduler dispatch latency before the kthread actually runs
            # (what the monolithic handler eliminates).
            if dispatch_ns:
                yield from self.sleep(dispatch_ns)
            # Collapse piled-up kicks: one drain covers them all.
            while True:
                ok, _ = self.kicks.try_get()
                if not ok:
                    break
            requests = self.driver.iommu.drain_ready()
            if not requests:
                continue
            yield from self.driver.preprocess_and_queue(self, requests)
            self.batches_handled += 1


class IommuDriver:
    """Wires the IOMMU's interrupts into the OS handling chain."""

    def __init__(self, kernel: "Kernel", iommu: Iommu):
        self.kernel = kernel
        self.iommu = iommu
        mitigation = kernel.config.mitigation
        self.monolithic = mitigation.monolithic_bottom_half
        self.polling = mitigation.polling_period_ns > 0
        self.bottom_half: BottomHalfThread = BottomHalfThread(kernel, self)
        self.poller = None
        if self.polling:
            from .polling import PollingThread

            # Polled mode: SSR interrupts stay masked; the poller drains.
            self.poller = PollingThread(kernel, self)
        else:
            iommu.on_interrupt = self._raise_top_half
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("driver already started")
        self._started = True
        if self.polling:
            self.poller.start()
        elif not self.monolithic:
            self.bottom_half.start()

    # ------------------------------------------------------------------
    # Interrupt path
    # ------------------------------------------------------------------
    def _raise_top_half(self, batch: int) -> None:
        os_path = self.kernel.config.os_path
        handler_ns = os_path.top_half_ns + (batch - 1) * os_path.top_half_per_extra_request_ns
        if self.monolithic:
            # Pre-processing and work-queue insertion happen inline, in
            # hard-IRQ context.
            handler_ns += batch * (
                os_path.bottom_half_per_request_ns + os_path.queue_work_ns
            )
            action = self._monolithic_action
        else:
            action = self._split_action
        irq = Irq(
            name="iommu-ppr",
            handler_ns=handler_ns,
            action=action,
            is_ssr=True,
            footprint=os_path.top_half_footprint,
        )
        self.kernel.irq_controller.raise_msi(irq)

    def _split_action(self, core: "Core") -> None:
        """Step 3a: wake the bottom-half kthread from the top half."""
        self.bottom_half.wake_origin_core = core.id
        self.bottom_half.kicks.try_put(1)

    def _monolithic_action(self, core: "Core") -> None:
        """Monolithic: drain and queue work directly from the IRQ core.

        The pre-processing time was already charged in the handler; the
        cache/predictor footprint of the larger handler is charged here.
        """
        requests = self.iommu.drain_ready()
        if not requests:
            return
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.instant(
                "iommu.monolithic_drain", "ssr", core.id, self.kernel.env.now,
                args={"requests": len(requests)},
            )
        footprint = self.kernel.config.os_path.bottom_half_footprint
        core.charge_footprint(
            footprint[0] * max(1, len(requests) // 2), footprint[1], core.current
        )
        self._queue_requests(core.id, requests)

    # ------------------------------------------------------------------
    # Bottom-half work (split mode)
    # ------------------------------------------------------------------
    def preprocess_and_queue(
        self, thread: BottomHalfThread, requests: List[SsrRequest]
    ) -> Generator:
        os_path = self.kernel.config.os_path
        cost = (
            os_path.bottom_half_per_request_ns + os_path.queue_work_ns
        ) * len(requests)
        batch_start = self.kernel.env.now
        yield from thread.run_for(cost)
        tracer = self.kernel.tracer
        if tracer.enabled:
            core_id = thread.core.id if thread.core is not None else (
                thread.last_core_id or 0
            )
            tracer.span(
                "iommu.bottom_half", "ssr", core_id,
                batch_start, self.kernel.env.now,
                args={"requests": len(requests)},
            )
            tracer.metrics.counter("ssr.bh_batches").inc()
            tracer.metrics.histogram("ssr.bh_batch_size", low=1.0, high=1e4).record(
                len(requests)
            )
        if thread.core is not None:
            footprint = os_path.bottom_half_footprint
            thread.core.charge_footprint(
                footprint[0], footprint[1], thread.core.last_thread
            )
            origin = thread.core.id
            displaced = thread.core.last_thread
        else:  # pragma: no cover - run_for leaves the thread on-core
            origin = thread.last_core_id or 0
            displaced = None
        self.kernel.charge_ssr(
            cost, CH_BOTTOM_HALF, "iommu-ppr", origin,
            victim=displaced.name if displaced is not None else None,
        )
        self._queue_requests(origin, requests)

    def _queue_requests(self, origin_core_id: int, requests: List[SsrRequest]) -> None:
        os_path = self.kernel.config.os_path
        for request in requests:
            # Page-fault servicing cost is a first-class calibration knob;
            # other SSR kinds use their Table I catalog values.
            if request.kind.name == "page_fault":
                service_ns = os_path.page_fault_service_ns
            else:
                service_ns = request.kind.service_ns
            request.stages["queued"] = self.kernel.env.now
            item = WorkItem(
                name=f"ssr-{request.request_id}",
                ssr_kind=request.kind.name,
                service_ns=service_ns + os_path.response_ns,
                on_start=lambda kernel, r=request: r.stages.__setitem__(
                    "service_start", kernel.env.now
                ),
                on_done=lambda kernel, r=request: self.iommu.complete_request(r),
                is_ssr=True,
                footprint=os_path.worker_footprint,
            )
            self.kernel.workqueues.queue_work(origin_core_id, item)
