"""Per-core time accounting and event counters.

Every nanosecond of core time lands in exactly one bucket (user, kernel,
hard-IRQ, context/mode switching, awake-idle, C-state transition, CC6).
Conservation of time across buckets is a property test invariant.

SSR servicing time is additionally tallied into a dedicated accumulator
that the QoS governor samples (Section VI of the paper: "all OS routines
involved in servicing SSRs are updated to account for their CPU cycles").
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List

#: Time buckets.
USER = "user"
KERNEL = "kernel"  # bottom halves, kworkers, daemons (schedulable kernel work)
IRQ = "irq"  # hard-IRQ context: top halves and IPIs
SWITCH = "switch"  # context switches and user<->kernel mode crossings
IDLE = "idle"  # awake but idle (grace period, between tasks)
TRANSITION = "transition"  # C-state entry/exit latency
CC6 = "cc6"  # deep sleep

ALL_MODES = (USER, KERNEL, IRQ, SWITCH, IDLE, TRANSITION, CC6)


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, one rounding per addition.

    Python 3.12 made ``sum()`` of floats compensate its rounding, so the
    builtin gives the same run different last bits on different
    interpreters; this gives every interpreter the bits ``sum()`` gave
    before 3.12.  The float totals that feed ``SystemMetrics`` use it.
    """
    total = 0
    for value in values:
        total += value
    return total


class TimeAccounting:
    """Time bucketed per core and per mode."""

    def __init__(self, num_cores: int):
        self.num_cores = num_cores
        self._buckets: List[Counter] = [Counter() for _ in range(num_cores)]

    def _check_core(self, core_id: int) -> None:
        # Out-of-range ids must fail loudly: a negative index would
        # silently charge the *last* core via Python list indexing,
        # corrupting the conservation-of-time invariant undetectably.
        if not 0 <= core_id < self.num_cores:
            raise ValueError(
                f"core_id {core_id} outside [0, {self.num_cores})"
            )

    def add(self, core_id: int, mode: str, ns: int) -> None:
        if ns < 0:
            raise ValueError(f"negative duration {ns}")
        if mode not in ALL_MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self._check_core(core_id)
        self._buckets[core_id][mode] += ns

    def core_total(self, core_id: int) -> int:
        self._check_core(core_id)
        return ordered_sum(self._buckets[core_id].values())

    def core_mode(self, core_id: int, mode: str) -> int:
        self._check_core(core_id)
        return self._buckets[core_id][mode]

    def total(self, mode: str) -> int:
        return ordered_sum(bucket[mode] for bucket in self._buckets)

    def grand_total(self) -> int:
        return ordered_sum(self.core_total(c) for c in range(self.num_cores))

    def residency(self, mode: str, horizon_ns: int) -> float:
        """Fraction of all core-time spent in ``mode`` over ``horizon_ns``."""
        if horizon_ns <= 0:
            return 0.0
        return self.total(mode) / (horizon_ns * self.num_cores)

    def snapshot(self) -> Dict[int, Dict[str, int]]:
        return {c: dict(self._buckets[c]) for c in range(self.num_cores)}


class SsrAccounting:
    """CPU time spent servicing SSRs, with a sampling window for the governor."""

    def __init__(self):
        self.total_ns = 0
        self._window_ns = 0
        #: SSRs fully serviced (response sent back to the device).
        self.completed = 0

    def add(self, ns: int) -> None:
        if ns < 0:
            raise ValueError(f"negative duration {ns}")
        self.total_ns += ns
        self._window_ns += ns

    def note_completion(self, count: int = 1) -> None:
        self.completed += count

    def take_window(self) -> int:
        """Return and reset the time accumulated since the last sample."""
        window, self._window_ns = self._window_ns, 0
        return window


class CounterSet:
    """Named event counters (interrupts, IPIs, wakeups, context switches)."""

    def __init__(self):
        self._counts: Counter = Counter()

    def bump(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount

    def get(self, name: str) -> int:
        return self._counts[name]

    def per_core(self, prefix: str, num_cores: int) -> List[int]:
        """Read counters named ``{prefix}:{core}`` as a list (à la /proc/interrupts)."""
        return [self._counts[f"{prefix}:{core}"] for core in range(num_cores)]

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)


#: Counter names used across the kernel model.
CTR_IRQ = "irq"  # per-core: "irq:<n>"
CTR_IPI = "ipi"  # per-core: "ipi:<n>"
CTR_SSR_INTERRUPT = "ssr_interrupt"  # interrupts raised for SSRs (coalescing merges)
CTR_SSR_REQUEST = "ssr_request"  # individual SSR requests arriving at the IOMMU
CTR_CONTEXT_SWITCH = "context_switch"
CTR_CORE_WAKEUP = "core_wakeup"  # CC6 exits
