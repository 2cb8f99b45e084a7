"""The interference ledger: every stolen nanosecond gets an owner.

The paper's contribution is *attribution* — which SSR stole how much CPU
time, through which mechanism, from which victim.  The simulator already
accounts every nanosecond (``oskernel.accounting``) and tallies the SSR
total for the QoS governor; this module splits that total (and the
indirect channels the accumulator deliberately excludes) by a
``(ssr, channel, victim, core)`` key.

Channels come in two families:

* **Service channels** — CPU time spent *executing* SSR handling code.
  These are exactly the sites that feed ``SsrAccounting`` (through
  :meth:`repro.oskernel.kernel.Kernel.charge_ssr`), so the conservation
  invariant holds *by construction*: the sum over service-channel cells
  equals ``SsrAccounting.total_ns`` to the last nanosecond.
* **Side channels** — costs the SSR *causes* but that are accounted
  elsewhere (IPI receive cost, user<->kernel mode crossings around an SSR
  interrupt, CC6 exit latency paid to wake for an SSR, and µarch
  pollution stall repaid inside victim segments).  These are tracked in
  the same ledger but excluded from the conservation check.

The zero-overhead contract mirrors the tracer's: instrumentation sites
hold a ledger reference and guard with ``if ledger.enabled:``; the
default :data:`NULL_LEDGER` makes a disabled run pay one attribute load
and one branch per site.  Charging never schedules simulation events and
never consumes randomness, so a profiled run is bit-for-bit identical to
an unprofiled one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "ALL_CHANNELS",
    "CH_BOTTOM_HALF",
    "CH_CC6_WAKEUP",
    "CH_ENQUEUE",
    "CH_IPI",
    "CH_MODE_SWITCH",
    "CH_POLL",
    "CH_POLLUTION",
    "CH_TOP_HALF",
    "CH_WORKER",
    "InterferenceLedger",
    "NO_VICTIM",
    "NULL_LEDGER",
    "NullLedger",
    "SIDE_CHANNELS",
    "SSR_SERVICE_CHANNELS",
    "victim_app",
]

#: Service channels: CPU time executing SSR handling code.  Their ledger
#: sum reconciles exactly with ``SsrAccounting.total_ns``.
CH_TOP_HALF = "top_half"  # hard-IRQ top half of an SSR interrupt
CH_BOTTOM_HALF = "bottom_half"  # bottom-half pre-processing (kthread or poller)
CH_ENQUEUE = "enqueue"  # work-queue insertion cost
CH_WORKER = "worker"  # kworker servicing of one SSR item
CH_POLL = "poll"  # empty-poll register reads (polled mode)

SSR_SERVICE_CHANNELS = (CH_TOP_HALF, CH_BOTTOM_HALF, CH_ENQUEUE, CH_WORKER, CH_POLL)

#: Side channels: interference the SSR causes that lands in *other*
#: accounting buckets (IRQ/switch/transition modes, victim stall time).
CH_IPI = "ipi"  # resched/wake IPI receive cost
CH_MODE_SWITCH = "mode_switch"  # user<->kernel crossings around SSR IRQ drains
CH_CC6_WAKEUP = "cc6_wakeup"  # CC6 exit latency paid to wake for an SSR
CH_POLLUTION = "pollution"  # µarch pollution stall repaid by victims

SIDE_CHANNELS = (CH_IPI, CH_MODE_SWITCH, CH_CC6_WAKEUP, CH_POLLUTION)

ALL_CHANNELS = SSR_SERVICE_CHANNELS + SIDE_CHANNELS
_CHANNEL_SET = frozenset(ALL_CHANNELS)
_SERVICE_SET = frozenset(SSR_SERVICE_CHANNELS)

#: Placeholder victim for charges with no displaced thread (e.g. work
#: queued to an empty core, enqueue cost).
NO_VICTIM = "-"


def victim_app(thread_name: Optional[str]) -> str:
    """Collapse a thread name to the application it belongs to.

    ``blackscholes/3`` -> ``blackscholes`` (CPU app worker threads),
    ``gpu-host/bfs`` stays whole (the GPU's host runtime thread *is* the
    app's CPU presence), kernel threads collapse to ``kernel``, and the
    swapper to ``idle``.
    """
    if not thread_name or thread_name == NO_VICTIM:
        return NO_VICTIM
    if thread_name.startswith("swapper/"):
        return "idle"
    if thread_name.startswith(("kworker/", "iommu/", "kdaemon", "tick/")):
        return "kernel"
    if thread_name.startswith("gpu-host/"):
        return thread_name
    return thread_name.split("/", 1)[0]


class InterferenceLedger:
    """Blame accumulator keyed by ``(ssr, channel, victim, core)``.

    ``ssr`` is a stable label for the *cause* — the IRQ name for
    top-half/IPI charges (``iommu-ppr``, ``gpu-signal``), the SSR kind
    for worker-stage charges (``page_fault``, ``signal``, ...).
    ``victim`` is the displaced thread's name (:data:`NO_VICTIM` when the
    charge displaced no one).
    """

    enabled = True

    def __init__(self):
        self._cells: Dict[Tuple[str, str, str, int], float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def charge(
        self,
        ssr: str,
        channel: str,
        victim: Optional[str],
        core_id: int,
        ns: float,
    ) -> None:
        """Charge ``ns`` of stolen time to one attribution cell."""
        if ns < 0:
            raise ValueError(f"ledger charge: negative duration {ns}")
        if channel not in _CHANNEL_SET:
            raise ValueError(f"ledger charge: unknown channel {channel!r}")
        key = (ssr, channel, victim or NO_VICTIM, core_id)
        cells = self._cells
        cells[key] = cells.get(key, 0) + ns

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cells)

    def channel_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {channel: 0 for channel in ALL_CHANNELS}
        for (_, channel, _, _), ns in self._cells.items():
            totals[channel] += ns
        return totals

    def service_total_ns(self) -> float:
        """Sum over service channels — must equal ``SsrAccounting.total_ns``."""
        return sum(
            ns for (_, channel, _, _), ns in self._cells.items()
            if channel in _SERVICE_SET
        )

    def side_total_ns(self) -> float:
        return sum(
            ns for (_, channel, _, _), ns in self._cells.items()
            if channel not in _SERVICE_SET
        )

    def entries(self) -> List[Dict[str, object]]:
        """All cells as plain dicts, largest charge first (JSON-ready)."""
        rows = [
            {
                "ssr": ssr,
                "channel": channel,
                "victim": victim,
                "app": victim_app(victim),
                "core": core,
                "ns": ns,
            }
            for (ssr, channel, victim, core), ns in self._cells.items()
        ]
        rows.sort(key=lambda r: (-r["ns"], r["ssr"], r["channel"], r["victim"], r["core"]))
        return rows

    def as_dict(self) -> Dict[str, object]:
        return {
            "entries": self.entries(),
            "channel_totals": self.channel_totals(),
            "service_total_ns": self.service_total_ns(),
            "side_total_ns": self.side_total_ns(),
        }


class NullLedger:
    """The disabled ledger: every operation is a no-op.

    Hook sites check :attr:`enabled` before building charge arguments, so
    with this ledger the hot path pays a single branch (the same
    zero-overhead pattern as :class:`repro.telemetry.NullTracer`).
    """

    enabled = False

    def charge(self, *args, **kwargs) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def channel_totals(self) -> Dict[str, float]:
        return {channel: 0 for channel in ALL_CHANNELS}

    def service_total_ns(self) -> float:
        return 0.0

    def side_total_ns(self) -> float:
        return 0.0

    def entries(self) -> List[Dict[str, object]]:
        return []

    def as_dict(self) -> Dict[str, object]:
        return {
            "entries": [],
            "channel_totals": self.channel_totals(),
            "service_total_ns": 0.0,
            "side_total_ns": 0.0,
        }


#: The process-wide disabled ledger (shared; it holds no state).
NULL_LEDGER = NullLedger()
