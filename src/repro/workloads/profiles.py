"""Statistical workload profiles.

A :class:`CpuAppProfile` captures the traits that govern a CPU
application's *sensitivity* to SSR interference (the paper names these
explicitly: raytrace is mostly serial so idle cores absorb SSRs;
fluidanimate's high L1 hit rate makes pollution expensive; barrier apps
suffer when one core is overloaded).  A :class:`GpuAppProfile` captures an
accelerator workload's SSR *pattern* (rate, clustering, blocking), which
the paper identifies as the other axis of the interference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class CpuAppProfile:
    """Statistical model of a multithreaded CPU application."""

    name: str
    #: Worker thread count (PARSEC runs with 4 threads in the paper).
    threads: int = 4
    #: Per-thread duty cycle: fraction of wall time the thread wants to
    #: compute (raytrace's helper threads are mostly idle).
    thread_duty: Tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)
    #: Cycles per instruction with a perfect L1/predictor.
    base_cpi: float = 0.9
    #: Data-cache accesses per kilo-instruction.
    apki: float = 300.0
    #: Branches per kilo-instruction.
    bpki: float = 150.0
    #: Working-set size in cache lines (the modeled L1 holds 512).
    ws_lines: int = 300
    hot_fraction: float = 0.2
    hot_rate: float = 0.8
    #: Static branch sites (predictor footprint) and predictability.
    branch_sites: int = 256
    branch_bias: float = 0.93
    #: Productive nanoseconds between synchronization points.
    chunk_ns: int = 400_000
    #: Whether threads barrier-synchronize each chunk (balance-sensitive).
    barriers: bool = False
    #: Off-CPU time after each chunk (pipeline/IO waits).
    think_ns: int = 0

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"{self.name}: threads must be >= 1")
        if len(self.thread_duty) < self.threads:
            raise ValueError(f"{self.name}: thread_duty shorter than threads")
        if not all(0.0 < duty <= 1.0 for duty in self.thread_duty):
            raise ValueError(f"{self.name}: duties must be in (0, 1]")


@dataclass(frozen=True)
class GpuAppProfile:
    """Statistical model of a GPU workload and its SSR pattern."""

    name: str
    #: GPU compute per chunk (progress unit).
    compute_chunk_ns: int
    #: Mean page faults issued after each chunk (0 => no SSRs).
    faults_per_chunk: float
    #: Faults gate the next chunk (on the GPU kernel's critical path).
    blocking: bool
    #: Of the per-chunk faults, how many are *serially dependent*
    #: (pointer-chasing: the next access cannot issue until the previous
    #: fault resolves).  These put full SSR round-trip latency on the GPU
    #: kernel's critical path, which is what makes blocking apps sensitive
    #: to coalescing delay and bottom-half scheduling latency (Fig. 6d/6f).
    dependent_faults: int = 0
    #: Pacing between faults within a burst (device fault-issue bandwidth).
    fault_spacing_ns: int = 8_000
    #: Faults clustered near the start of execution (bfs-style).
    burst_faults: int = 0
    burst_spacing_ns: int = 4_000
    #: Duty-cycle phases: compute for active_ns, then idle for idle_ns
    #: (0 disables phasing — continuous execution).
    active_ns: int = 0
    idle_ns: int = 0
    #: Host runtime (HSA) polling thread behaviour.
    host_poll_period_ns: int = 800_000
    host_poll_burst_ns: int = 150_000
    ssr_kind: str = "page_fault"

    @property
    def mean_fault_interval_ns(self) -> float:
        """Average spacing between faults while actively computing."""
        if self.faults_per_chunk <= 0:
            return float("inf")
        return self.compute_chunk_ns / self.faults_per_chunk

    def without_ssrs(self) -> "GpuAppProfile":
        """The same workload with pinned memory (no faults)."""
        from dataclasses import replace

        return replace(self, faults_per_chunk=0.0, burst_faults=0)
