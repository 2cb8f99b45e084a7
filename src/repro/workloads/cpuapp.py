"""CPU application threads built from statistical profiles.

A :class:`CpuApp` spawns one :class:`CpuAppThread` per profile thread.
Threads compute in chunks, optionally barrier-synchronize, and optionally
think (off-CPU) between chunks.  Each thread's share of the core's L1D and
predictor sets how much a kernel SSR handler's footprint costs it.

The app's *performance* is total retired instructions over the measured
horizon — productive time divided by the profile's solo steady-state CPI —
which is exactly what the paper's normalized-performance bars compare.
"""

from __future__ import annotations

from typing import Generator, List, Optional, TYPE_CHECKING

from ..oskernel.thread import KIND_USER, PRIO_NORMAL, Thread
from .barrier import Barrier
from .calibration import SteadyState, steady_state_for
from .profiles import CpuAppProfile

if TYPE_CHECKING:  # pragma: no cover
    from ..oskernel.kernel import Kernel


class CpuAppThread(Thread):
    """One worker thread of a CPU application."""

    def __init__(
        self,
        kernel: "Kernel",
        app: "CpuApp",
        index: int,
        barrier: Optional[Barrier],
    ):
        super().__init__(
            kernel,
            name=f"{app.profile.name}/{index}",
            kind=KIND_USER,
            priority=PRIO_NORMAL,
        )
        self.app = app
        self.index = index
        self.barrier = barrier
        self.duty = app.profile.thread_duty[index]
        uarch = kernel.config.cpu.uarch
        # Analytic pollution-charge parameters (see Core.charge_footprint):
        # how much of the shared structures this thread keeps warm, and how
        # likely an evicted line/entry was going to be reused.
        profile = app.profile
        cache_lines = uarch.cache_sets * uarch.cache_ways
        hot_lines = profile.ws_lines * profile.hot_fraction
        self.cache_coverage = min(1.0, hot_lines / cache_lines)
        self.predictor_coverage = min(1.0, profile.branch_sites / uarch.predictor_entries)
        self.reuse_probability = profile.hot_rate

    def body(self) -> Generator:
        profile = self.app.profile
        compute_ns = profile.chunk_ns * self.duty
        rest_ns = profile.chunk_ns * (1.0 - self.duty) + profile.think_ns
        while True:
            yield from self.run_for(compute_ns)
            if self.barrier is not None:
                event = self.barrier.arrive()
                if not event.triggered:
                    yield from self.wait(event)
            if rest_ns > 0:
                yield from self.sleep(rest_ns)
            elif self.core is not None and self.kernel.scheduler.has_work(self.core):
                # Cooperative fairness point between chunks.
                self._release_cpu(requeue=True)


class CpuApp:
    """A multithreaded CPU application instance."""

    def __init__(self, kernel: "Kernel", profile: CpuAppProfile):
        self.kernel = kernel
        self.profile = profile
        self.steady: SteadyState = steady_state_for(profile, kernel.config.cpu)
        barrier = Barrier(kernel.env, profile.threads) if profile.barriers else None
        self.barrier = barrier
        self.threads: List[CpuAppThread] = [
            CpuAppThread(kernel, self, index, barrier)
            for index in range(profile.threads)
        ]
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError(f"app {self.profile.name} already started")
        self._started = True
        for thread in self.threads:
            self.kernel.spawn(thread)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def productive_ns(self) -> float:
        return sum(thread.productive_ns for thread in self.threads)

    @property
    def instructions_retired(self) -> float:
        freq = self.kernel.config.cpu.freq_ghz
        return self.steady.instructions_for_ns(self.productive_ns, freq)

    @property
    def baseline_l1_misses(self) -> float:
        """Misses this app would take at its solo steady-state rate."""
        accesses = self.instructions_retired * self.profile.apki / 1000.0
        return accesses * self.steady.miss_rate

    @property
    def baseline_mispredicts(self) -> float:
        branches = self.instructions_retired * self.profile.bpki / 1000.0
        return branches * self.steady.mispredict_rate

    @property
    def extra_l1_misses(self) -> float:
        """Misses charged to kernel SSR pollution (Fig. 5a numerator)."""
        return sum(thread.extra_misses for thread in self.threads)

    @property
    def extra_mispredicts(self) -> float:
        return sum(thread.extra_mispredicts for thread in self.threads)

    #: Counter-noise floor: real hardware never reports a 0% miss or
    #: mispredict rate, so relative-increase ratios use at least this rate
    #: as the denominator (prevents divide-by-near-zero blowups for tiny
    #: working sets like blackscholes).
    RATE_FLOOR = 0.01

    def l1_miss_increase(self) -> float:
        """Fractional L1D miss increase from SSR pollution (Fig. 5a)."""
        accesses = self.instructions_retired * self.profile.apki / 1000.0
        baseline = max(self.baseline_l1_misses, accesses * self.RATE_FLOOR)
        return self.extra_l1_misses / baseline if baseline else 0.0

    def mispredict_increase(self) -> float:
        """Fractional branch misprediction increase (Fig. 5b)."""
        branches = self.instructions_retired * self.profile.bpki / 1000.0
        baseline = max(self.baseline_mispredicts, branches * self.RATE_FLOOR)
        return self.extra_mispredicts / baseline if baseline else 0.0
