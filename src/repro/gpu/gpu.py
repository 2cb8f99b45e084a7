"""The GPU device: executes a workload profile and issues SSRs.

The GPU runs semi-independently of the CPUs: it computes in chunks and
issues page faults according to its workload's pattern.  Two hardware
limits throttle it (and make the paper's backpressure QoS possible):

* a bound on outstanding SSRs (fault state the GPU must hold), and
* the IOMMU's bounded PPR queue.

Blocking workloads additionally stall until each chunk's faults complete
(faults on the kernel's critical path); overlapped workloads — like the
paper's microbenchmark — keep computing while faults are in flight.
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

from ..oskernel.thread import KIND_USER, PRIO_NORMAL, Thread
from ..iommu.iommu import Iommu
from ..iommu.request import SSR_CATALOG, SsrRequest
from ..sim import Resource

if TYPE_CHECKING:  # pragma: no cover
    from ..oskernel.kernel import Kernel
    from ..workloads.profiles import GpuAppProfile


class HostRuntimeThread(Thread):
    """The GPU app's user-space host thread (HSA runtime polling/submission).

    It periodically wakes to poll completion queues; this background
    activity is part of why even a no-SSR GPU run keeps a core lightly
    awake (the paper's ~86% no-SSR CC6 baseline, Fig. 4)."""

    def __init__(self, kernel: "Kernel", profile: "GpuAppProfile"):
        super().__init__(
            kernel,
            name=f"gpu-host/{profile.name}",
            kind=KIND_USER,
            priority=PRIO_NORMAL,
        )
        self.profile = profile

    def body(self) -> Generator:
        profile = self.profile
        while True:
            yield from self.run_for(profile.host_poll_burst_ns)
            if self.core is not None:
                self._release_cpu(requeue=False)
            yield from self.sleep(profile.host_poll_period_ns)


class GpuDevice:
    """An integrated GPU executing one workload profile."""

    def __init__(
        self,
        kernel: "Kernel",
        iommu: Iommu,
        profile: "GpuAppProfile",
        ssr_enabled: bool = True,
    ):
        self.kernel = kernel
        self.env = kernel.env
        self.iommu = iommu
        self.profile = profile
        self.ssr_enabled = ssr_enabled
        self.outstanding = Resource(
            kernel.env, capacity=kernel.config.gpu.max_outstanding_ssrs
        )
        self.host_thread = HostRuntimeThread(kernel, profile)
        self._rng = kernel.rng.stream(f"gpu:{profile.name}")
        #: Telemetry track name for this device's events.
        self._track = f"gpu:{profile.name}"

        #: Completed GPU compute time (the progress metric for real apps).
        self.progress_ns = 0
        #: Time spent stalled on fault issue limits or completions.
        self.stall_ns = 0
        self.faults_issued = 0
        #: Completed faults (the throughput metric for the microbenchmark).
        self.faults_completed = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("GPU already started")
        self._started = True
        self.kernel.spawn(self.host_thread)
        self.env.process(self._run())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(self) -> Generator:
        profile = self.profile
        kind = SSR_CATALOG[profile.ssr_kind]
        if self.ssr_enabled and profile.burst_faults:
            for _ in range(profile.burst_faults):
                yield self.env.timeout(profile.burst_spacing_ns)
                yield from self._issue_fault(kind, blocking=False)
        phase_budget = profile.active_ns
        while True:
            if profile.active_ns and phase_budget <= 0:
                yield self.env.timeout(profile.idle_ns)
                phase_budget = profile.active_ns
            yield from self._compute(profile.compute_chunk_ns)
            phase_budget -= profile.compute_chunk_ns
            if not self.ssr_enabled:
                continue
            # Faults arrive as a burst at the next kernel launch boundary
            # (first touches of newly allocated data), paced by the
            # device's fault-issue bandwidth.  This burst-quiet cadence is
            # what lets CPUs sleep *between* launches (Fig. 4) while still
            # being hammered during them.
            fault_count = self._draw_fault_count()
            dependent = min(profile.dependent_faults, fault_count)
            completions = []
            for _ in range(fault_count - dependent):
                yield self.env.timeout(profile.fault_spacing_ns)
                request = yield from self._issue_fault(kind, blocking=False)
                completions.append(request.completion)
            for _ in range(dependent):
                # Pointer-chasing faults: each blocks the next access.
                yield self.env.timeout(profile.fault_spacing_ns)
                yield from self._issue_fault(kind, blocking=True)
            if profile.blocking and completions:
                stall_start = self.env.now
                yield self.env.all_of(completions)
                self.stall_ns += self.env.now - stall_start
                tracer = self.kernel.tracer
                if tracer.enabled and self.env.now > stall_start:
                    tracer.span(
                        "gpu.stall", "gpu", self._track, stall_start, self.env.now,
                        args={"reason": "chunk_faults", "faults": len(completions)},
                    )

    #: Progress-accounting tick: fine enough that a horizon cut mid-chunk
    #: loses a negligible sliver of progress (whole-chunk accounting would
    #: quantize the progress metric by up to one chunk).
    _PROGRESS_TICK_NS = 100_000

    def _compute(self, duration_ns: int) -> Generator:
        remaining = duration_ns
        while remaining > 0:
            tick = min(remaining, self._PROGRESS_TICK_NS)
            yield self.env.timeout(tick)
            self.progress_ns += tick
            remaining -= tick

    def _draw_fault_count(self) -> int:
        mean = self.profile.faults_per_chunk
        whole = int(mean)
        if self._rng.random() < (mean - whole):
            whole += 1
        return whole

    def _issue_fault(self, kind, blocking: bool) -> Generator:
        """Issue one fault, honoring both hardware backpressure limits."""
        stall_start = self.env.now
        yield self.outstanding.request()
        request = SsrRequest(
            request_id=self.iommu.allocate_request_id(),
            kind=kind,
            issued_at=self.env.now,
            completion=self.env.event(),
        )
        yield self.iommu.submit(request)
        self.stall_ns += self.env.now - stall_start
        self.faults_issued += 1
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.instant(
                "gpu.fault.issue", "gpu", self._track, self.env.now,
                args={"id": request.request_id, "blocking": blocking,
                      "backpressure_ns": self.env.now - stall_start},
            )
            tracer.metrics.counter("gpu.faults_issued").inc()
        request.completion.callbacks.append(self._on_fault_complete)
        if blocking:
            wait_start = self.env.now
            yield request.completion
            self.stall_ns += self.env.now - wait_start
            if tracer.enabled and self.env.now > wait_start:
                tracer.span(
                    "gpu.stall", "gpu", self._track, wait_start, self.env.now,
                    args={"reason": "dependent_fault", "id": request.request_id},
                )
        return request

    def _on_fault_complete(self, _event) -> None:
        self.faults_completed += 1
        self.outstanding.release()
