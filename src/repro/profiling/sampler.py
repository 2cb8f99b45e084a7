"""Fixed-interval sim-time sampling into a bounded ring.

The ledger answers *who paid* — the sampler answers *when*: per-core
execution mode, PPR queue depth, outstanding-SSR count, and cumulative
CC6 residency captured at a fixed simulated-time interval, so the HTML
report can draw a timeline strip of a run.

Two properties matter:

* **Determinism** — samples are taken by ``env.call_later`` callbacks
  that only *read* simulator state.  Inserted timer events shift event
  ids uniformly, so tie-breaking order between all other events is
  preserved, and since a sample mutates nothing, a sampled run is
  bit-for-bit identical to an unsampled one.
* **Bounded memory with deterministic downsampling** — when the ring
  fills, every other retained sample is dropped and the sampling
  interval doubles.  The decimation points depend only on simulated
  time, never on wall clock, so the same run always yields the same
  timeline.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, TYPE_CHECKING

from ..oskernel import accounting as acct
from ..telemetry.kit import decimate_pairs

if TYPE_CHECKING:  # pragma: no cover
    from ..core.system import System

__all__ = ["DEFAULT_SAMPLE_INTERVAL_NS", "DEFAULT_SAMPLER_CAPACITY", "MODE_CODES", "SimSampler"]

#: Default sampling cadence (sim time).  100 µs over a 20 ms experiment
#: horizon yields 200 samples — well under the default ring capacity.
DEFAULT_SAMPLE_INTERVAL_NS = 100_000

#: Default ring capacity (samples retained before decimation).
DEFAULT_SAMPLER_CAPACITY = 4096

#: One-character codes for per-core modes (a row stores one char per core).
MODE_CODES: Dict[str, str] = {
    acct.USER: "u",
    acct.KERNEL: "k",
    acct.IRQ: "q",
    acct.SWITCH: "s",
    acct.IDLE: "i",
    acct.TRANSITION: "t",
    acct.CC6: "c",
}

#: Column names of one sample row, in storage order.
SAMPLE_COLUMNS = ("ts_ns", "core_modes", "ppr_depth", "outstanding_ssrs", "cc6_ns")


class SimSampler:
    """Periodic read-only snapshots of a running :class:`System`."""

    def __init__(
        self,
        interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS,
        capacity: int = DEFAULT_SAMPLER_CAPACITY,
    ):
        if interval_ns <= 0:
            raise ValueError(f"interval_ns must be positive, got {interval_ns}")
        if capacity < 16:
            raise ValueError(f"capacity must be >= 16, got {capacity}")
        self.initial_interval_ns = interval_ns
        self.interval_ns = interval_ns
        self.capacity = capacity
        self.samples: List[Tuple] = []
        #: Times the ring overflowed and was decimated (interval doubled).
        self.decimations = 0
        self._system = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, system: "System") -> None:
        """Begin the tick chain on ``system``'s environment."""
        if self._system is not None:
            raise RuntimeError("sampler already attached to a system")
        self._system = system
        system.env.call_later(self.interval_ns, self._tick)

    def _tick(self) -> None:
        self.samples.append(self._snapshot())
        if len(self.samples) >= self.capacity:
            # Deterministic decimation: the earlier sample of each pair
            # survives, and the cadence doubles.  Each row carries its own
            # timestamp, so the irregular spacing at the decimation
            # boundary is harmless.
            self.samples = decimate_pairs(self.samples, lambda earlier, later: earlier)
            self.interval_ns *= 2
            self.decimations += 1
        self._system.env.call_later(self.interval_ns, self._tick)

    # ------------------------------------------------------------------
    # Snapshot (strictly read-only)
    # ------------------------------------------------------------------
    def _snapshot(self) -> Tuple:
        system = self._system
        kernel = system.kernel
        now = system.env.now
        modes = []
        cc6_ns = kernel.accounting.total(acct.CC6)
        for core in kernel.cores:
            segment = core._segment
            if segment is None:
                modes.append(MODE_CODES[acct.IDLE])
            else:
                modes.append(MODE_CODES.get(segment[0], "?"))
                if segment[0] == acct.CC6:
                    # The in-flight sleep segment is not yet in the closed
                    # totals; include its elapsed part so residency is
                    # monotone instead of jumping at each wake.
                    cc6_ns += now - segment[1]
        outstanding = (
            kernel.counters.get(acct.CTR_SSR_REQUEST) - kernel.ssr_accounting.completed
        )
        return (
            now,
            "".join(modes),
            len(system.iommu.ppr_queue),
            outstanding,
            cc6_ns,
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "interval_ns": self.interval_ns,
            "initial_interval_ns": self.initial_interval_ns,
            "capacity": self.capacity,
            "decimations": self.decimations,
            "columns": list(SAMPLE_COLUMNS),
            "mode_codes": {mode: code for mode, code in MODE_CODES.items()},
            "rows": [list(row) for row in self.samples],
        }
