"""Kernel work queues and per-core kworker threads.

Deferred SSR work (step 5 of the paper's Figure 1) runs on kworkers at
*normal* priority — this is why busy CPU applications delay GPU system
services (Section IV-A: up to 18% accelerator slowdown).  Work is queued
to the local core's kworker (Linux ``queue_work`` semantics); when the
local worker is backlogged, work spills to the least-loaded awake core, and
only wakes a sleeping core when everyone awake is saturated.

The QoS governor (Section VI) hooks the kworker loop: before servicing an
SSR item, the worker may be told to delay with exponential back-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Tuple, TYPE_CHECKING

from ..profiling.ledger import CH_ENQUEUE, CH_WORKER
from ..sim import Store
from . import accounting as acct
from .thread import KIND_KWORKER, PRIO_NORMAL, Thread

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

#: Local backlog beyond which new work spills to another core.
SPILL_BACKLOG_THRESHOLD = 4


@dataclass
class WorkItem:
    """One deferred work unit."""

    name: str
    service_ns: float
    #: Called (with the kernel) right before servicing begins.
    on_start: Optional[Callable[["Kernel"], None]] = None
    #: Called (with the kernel) once servicing completes.
    on_done: Optional[Callable[["Kernel"], None]] = None
    #: SSR items are accounted for QoS and may be throttled by the governor.
    is_ssr: bool = False
    #: (cache accesses, branches) pushed through the servicing core.
    footprint: Optional[Tuple[int, int]] = None
    enqueued_at: int = 0
    #: Attribution label for SSR items (the request kind, e.g.
    #: ``page_fault`` / ``signal``); falls back to ``name`` when unset.
    ssr_kind: Optional[str] = None


class KWorker(Thread):
    """A per-core kernel worker servicing its core's work queue."""

    def __init__(self, kernel: "Kernel", core_id: int, queue: Store):
        super().__init__(
            kernel,
            name=f"kworker/{core_id}",
            kind=KIND_KWORKER,
            priority=PRIO_NORMAL,
            pinned_core=core_id,
        )
        self.queue = queue
        self.items_serviced = 0

    def body(self) -> Generator:
        kernel = self.kernel
        tracer = kernel.tracer
        while True:
            item = yield from self.wait(self.queue.get())
            if item.is_ssr and kernel.qos_governor is not None:
                yield from kernel.qos_governor.gate(self)
            if item.on_start is not None:
                item.on_start(kernel)
            service_start = self.env.now
            yield from self.run_for(item.service_ns)
            if tracer.enabled:
                core_id = self.core.id if self.core is not None else self.pinned_core
                tracer.span(
                    "kworker.service", "work", core_id,
                    service_start, self.env.now,
                    args={"item": item.name, "ssr": item.is_ssr,
                          "queue_wait_ns": service_start - item.enqueued_at},
                )
                tracer.metrics.counter("wq.items").inc()
                tracer.metrics.histogram("wq.queue_wait_ns").record(
                    max(0.0, service_start - item.enqueued_at)
                )
            if item.is_ssr:
                core = self.core
                kernel.charge_ssr(
                    item.service_ns,
                    CH_WORKER,
                    item.ssr_kind or item.name,
                    core.id if core is not None else self.pinned_core,
                    victim=(
                        core.last_thread.name
                        if core is not None and core.last_thread is not None
                        else None
                    ),
                )
            if item.footprint is not None and self.core is not None:
                # The pollution victim is whoever this worker displaced.
                self.core.charge_footprint(
                    item.footprint[0], item.footprint[1], self.core.last_thread
                )
            self.items_serviced += 1
            if item.on_done is not None:
                item.on_done(kernel)


class WorkQueues:
    """The system's per-core work queues plus the spill placement policy."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._queues: List[Store] = [
            Store(kernel.env) for _ in range(kernel.config.cpu.num_cores)
        ]
        self._workers: List[KWorker] = [
            KWorker(kernel, core_id, queue)
            for core_id, queue in enumerate(self._queues)
        ]

    @property
    def workers(self) -> List[KWorker]:
        return self._workers

    def start(self) -> None:
        for worker in self._workers:
            worker.start()

    def backlog(self, core_id: int) -> int:
        return len(self._queues[core_id])

    def queue_work(self, origin_core_id: int, item: WorkItem) -> int:
        """Queue ``item``, preferring the origin core; returns the target."""
        item.enqueued_at = self.kernel.env.now
        target = self._select_core(origin_core_id)
        # The insertion cost itself is charged by the enqueuing context as
        # part of its timed handler/pre-processing work (charging it here
        # directly would create time out of thin air and break the
        # every-nanosecond-accounted invariant).
        if item.is_ssr:
            self.kernel.charge_ssr(
                self.kernel.config.os_path.queue_work_ns,
                CH_ENQUEUE,
                item.ssr_kind or item.name,
                target,
            )
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.instant(
                "work.enqueue", "work", target, self.kernel.env.now,
                args={"item": item.name, "origin": origin_core_id,
                      "backlog": self.backlog(target)},
            )
        accepted = self._queues[target].try_put(item)
        if not accepted:  # pragma: no cover - stores are unbounded
            raise RuntimeError("work queue rejected an item")
        return target

    def _select_core(self, origin_core_id: int) -> int:
        if self.backlog(origin_core_id) < SPILL_BACKLOG_THRESHOLD:
            return origin_core_id
        cores = self.kernel.cores
        relaxed_awake = [
            c.id
            for c in cores
            if not c.is_sleeping and self.backlog(c.id) < SPILL_BACKLOG_THRESHOLD
        ]
        if relaxed_awake:
            return min(relaxed_awake, key=lambda cid: (self.backlog(cid), cid))
        # Every awake worker is saturated: waking a sleeping core beats
        # unbounded queueing delay.
        return min(
            (c.id for c in cores), key=lambda cid: (self.backlog(cid), cid)
        )
