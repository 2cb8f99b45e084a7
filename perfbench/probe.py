"""Host-speed probe: a fixed pure-Python kernel, timed around every run.

The kernel imports nothing from ``repro``, so no change to the program can
move it.  When it reads slower, the host was slower: compare
``host.probe_ms`` of two runs before blaming (or crediting) a code change
for a shift in the end-to-end figures.  The probes taken around every
simulated run also scale the timing metrics (see ``RunRecorder``).
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Iterations of the kernel body per probe; about 1-2 ms on a 2.1 GHz Xeon.
RUN_PROBE_ITERATIONS = 4_000
#: What one probe reads on the reference host, a quiet 2-vCPU KVM guest
#: on a 2.1 GHz Xeon; host-speed-adjusted times are scaled to it.
REFERENCE_RUN_PROBE_MS = 1.30


def _kernel(iterations: int) -> int:
    """Dict updates, integer hashing and branches: the interpreter's bread."""
    table: dict = {}
    acc = 0
    for i in range(iterations):
        slot = (i * 2654435761) & 1023
        table[slot] = table.get(slot, 0) + i
        if slot & 1:
            acc ^= slot
        else:
            acc += 1
    return acc + len(table)


def run_probe_ms() -> float:
    """One short probe, in milliseconds of this thread's CPU time (so a
    process sharing the CPU cannot stretch it by preempting it)."""
    begin = time.thread_time()
    _kernel(RUN_PROBE_ITERATIONS)
    return (time.thread_time() - begin) * 1000.0


def slowdown(samples: List[float]) -> float:
    """How much slower than the reference host the probes ran."""
    return statistics.fmean(samples) / REFERENCE_RUN_PROBE_MS


def host_probe_line(samples: List[float]) -> str:
    """``host.probe_ms`` (the median probe) and how it moved over the run."""
    third = max(1, len(samples) // 3)
    return (
        f"host.probe_ms {statistics.median(samples):.3f} (first third "
        f"{statistics.median(samples[:third]):.3f}, last third "
        f"{statistics.median(samples[-third:]):.3f}; {len(samples)} probes)"
    )
