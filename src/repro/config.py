"""System-wide configuration for the simulated heterogeneous SoC.

All calibration constants live here: hardware geometry (modeled on the
paper's AMD A10-7850K testbed), OS path latencies, scheduler parameters,
C-state latencies, and the mitigation / QoS knobs evaluated in the paper.

Times are integer nanoseconds throughout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Tuple

from .uarch.state import UarchConfig

#: Nanosecond helpers.
US = 1_000
MS = 1_000_000


@dataclass(frozen=True)
class CpuConfig:
    """CPU complex geometry and per-core speeds (A10-7850K-like)."""

    num_cores: int = 4
    freq_ghz: float = 3.7
    #: Cycles an L1D miss stalls the pipeline (to L2/memory mix).
    l1_miss_penalty_cycles: float = 20.0
    #: Cycles a branch mispredict costs (pipeline refill).
    branch_mispredict_penalty_cycles: float = 14.0
    #: Probability that a line a handler evicted would have been reused.
    pollution_reuse_probability: float = 0.8
    #: Scale on the analytic footprint-x-coverage pollution charge
    #: (accounts for repeated touches per line and L1I effects the model
    #: does not simulate; calibrated against the paper's Fig. 3a spread).
    pollution_amplification: float = 18.0
    uarch: UarchConfig = field(default_factory=UarchConfig)

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles / self.freq_ghz


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler behaviour (CFS-flavoured, heavily simplified)."""

    #: Timeslice for normal-priority threads when the runqueue is contended.
    timeslice_ns: int = 2 * MS
    #: A woken normal-priority thread preempts the running one only if the
    #: runner has already consumed this much of its slice (wakeup granularity).
    wakeup_granularity_ns: int = 30 * US
    #: Cost of a context switch (save/restore, runqueue manipulation).
    context_switch_ns: int = 900
    #: Cost of crossing user<->kernel mode once (Fig. 2's 'a' segments).
    mode_switch_ns: int = 250


@dataclass(frozen=True)
class CStateConfig:
    """Core C-state (CC6) model, per the paper's Section IV-B."""

    #: How long a core must be continuously idle before entering CC6.
    entry_grace_ns: int = 150 * US
    #: Latency to enter CC6 (state save, cache flush initiation).
    entry_latency_ns: int = 20 * US
    #: Latency to exit CC6 on an interrupt (the paper notes sleeping CPUs
    #: respond slightly slower to SSRs than active ones).
    exit_latency_ns: int = 50 * US


@dataclass(frozen=True)
class OsPathConfig:
    """Latencies of the SSR handling chain of Fig. 1 (calibrated, not measured)."""

    #: Top-half hard-IRQ handler body (read IOMMU log head, ack) -- step 3/3b.
    top_half_ns: int = 1_200
    #: Extra top-half work per additional coalesced request in the same IRQ.
    top_half_per_extra_request_ns: int = 300
    #: Inter-processor interrupt: cost at the receiving core -- step 3a.
    ipi_receive_ns: int = 700
    #: IPI send cost added to the sender's handler.
    ipi_send_ns: int = 200
    #: Scheduler dispatch latency for the threaded bottom half: the wakeup
    #: must traverse the scheduler (enqueue, possible IPI, context switch,
    #: idle-exit) before pre-processing starts.  The monolithic handler of
    #: Section V-C runs the pre-processing inline in hard-IRQ context and
    #: skips this entirely -- the paper attributes its up-to-2.3x GPU gain
    #: to "eliminating the OS scheduling delay in waking up the first
    #: bottom half handler".
    bottom_half_dispatch_ns: int = 18_000
    #: Bottom-half pre-processing per request (parse PPR entry) -- step 4a.
    bottom_half_per_request_ns: int = 800
    #: Work-queue insertion -- step 4b.
    queue_work_ns: int = 400
    #: Kernel worker servicing a soft page fault -- step 5 (get_user_pages
    #: fast path; no disk I/O, matching the paper's soft-fault methodology).
    page_fault_service_ns: int = 3_500
    #: Writing the completion back to the IOMMU/GPU -- step 6.
    response_ns: int = 800
    #: Kernel handler cache/branch footprints (lines / branch executions)
    #: pushed through the interrupted core's structures per stage.
    top_half_footprint: Tuple[int, int] = (32, 16)
    bottom_half_footprint: Tuple[int, int] = (64, 32)
    worker_footprint: Tuple[int, int] = (192, 96)


@dataclass(frozen=True)
class IommuConfig:
    """IOMMU (PPR queue + MSI) behaviour."""

    #: Peripheral Page Request queue capacity (entries).
    ppr_queue_entries: int = 64
    #: Latency from device fault to PPR entry visible + MSI raised.
    fault_to_interrupt_ns: int = 1_000
    #: Hardware limit on requests folded into one coalesced interrupt.
    max_coalesce_batch: int = 16
    #: MSI arbitration mode: ``lowest_priority`` (default; sticky-idle
    #: preference, rotation over busy cores, sleepers avoided) or
    #: ``round_robin_all`` (naive spread that also wakes sleeping cores —
    #: an ablation of the delivery-policy modeling decision in DESIGN.md).
    msi_arbitration: str = "lowest_priority"


@dataclass(frozen=True)
class PowerConfig:
    """A simple per-core power model for the energy-efficiency results.

    The paper argues energy through CC6 residency; this model turns the
    accounted mode times into energy so the cost of lost sleep is a number.
    Values are ballpark figures for a Kaveri-class core.
    """

    #: Power while executing (user/kernel/IRQ/switch), watts per core.
    active_w: float = 8.0
    #: Power while awake but idle (grace periods, C-state transitions).
    idle_w: float = 2.0
    #: Power in CC6.
    cc6_w: float = 0.15


@dataclass(frozen=True)
class GpuConfig:
    """Integrated GPU (GCN-like) parameters."""

    freq_mhz: float = 720.0
    #: Hardware limit on outstanding SSRs (fault state the GPU must hold).
    #: This bound is what makes backpressure-based QoS possible (Section VI).
    max_outstanding_ssrs: int = 32


@dataclass(frozen=True)
class MitigationConfig:
    """The three mitigations of Section V, freely combinable."""

    #: Steer all SSR interrupts to one core instead of spreading (Sec. V-A).
    steer_to_single_core: bool = False
    #: The core that receives steered interrupts (and the pinned bottom half).
    steering_target: int = 0
    #: IOMMU interrupt coalescing window; 0 disables (Sec. V-B).  The paper
    #: uses the hardware maximum of 13 us.
    coalesce_window_ns: int = 0
    #: Fold the bottom half into the top half (monolithic handler, Sec. V-C).
    monolithic_bottom_half: bool = False
    #: NAPI-style polling (the Related-Work alternative the paper discusses
    #: via Mogul & Ramakrishnan): disable SSR interrupts entirely and poll
    #: the PPR queue at this period.  0 disables.  Contains interrupt
    #: storms, but burns CPU even when the accelerator is quiet — exactly
    #: why the paper deems polling a poor fit for SSRs.
    polling_period_ns: int = 0

    @property
    def label(self) -> str:
        """A short, stable name for tables (matches the paper's legends)."""
        parts = []
        if self.steer_to_single_core:
            parts.append("Intr_to_single_core")
        if self.coalesce_window_ns:
            parts.append("Intr_coalescing")
        if self.monolithic_bottom_half:
            parts.append("Monolithic_bottom_half")
        if self.polling_period_ns:
            parts.append("Polling")
        return " + ".join(parts) if parts else "Default"


#: The paper's coalescing window (PCIe register D0F2xF4_x93 maximum).
COALESCE_WINDOW_PAPER_NS = 13 * US


@dataclass(frozen=True)
class QosConfig:
    """The Section VI QoS governor."""

    enabled: bool = False
    #: Maximum fraction of total CPU time that may go to SSR servicing
    #: (th_25 -> 0.25, th_5 -> 0.05, th_1 -> 0.01).
    ssr_time_threshold: float = 1.0
    #: Governor sampling period (the paper suggests ~10 us; we default a
    #: little coarser, which only quantizes enforcement).
    sample_period_ns: int = 20 * US
    #: Horizon of the exponentially-weighted running average of the SSR
    #: time fraction.  Pure per-sample fractions flap (a throttled window
    #: shows ~0% SSR time and instantly resets the back-off); averaging
    #: makes enforcement track the budget over a meaningful interval.
    averaging_window_ns: int = 500 * US
    #: Initial back-off delay (doubles while over threshold) -- Fig. 11.
    initial_delay_ns: int = 10 * US
    #: Ceiling on the exponential back-off.
    max_delay_ns: int = 5 * MS
    #: The paper's future-work extension: derive the threshold dynamically
    #: from how much CPU capacity is actually idle, instead of a fixed
    #: administrator setting.  When enabled, ``ssr_time_threshold`` is
    #: ignored and the effective threshold floats between
    #: ``adaptive_floor`` (fully busy host) and ~1.0 (fully idle host).
    adaptive: bool = False
    adaptive_floor: float = 0.02

    @property
    def label(self) -> str:
        if not self.enabled:
            return "default"
        if self.adaptive:
            return "th_adaptive"
        return f"th_{int(round(self.ssr_time_threshold * 100))}"


@dataclass(frozen=True)
class HousekeepingConfig:
    """Background OS activity that sets the no-SSR CC6 baseline (~86%)."""

    #: Scheduler-tick period per core (250 Hz-like).
    timer_tick_ns: int = 4 * MS
    #: CPU time consumed by each tick.
    timer_tick_cost_ns: int = 30 * US
    #: Period of a small per-system housekeeping daemon (RCU, kswapd, ...).
    daemon_period_ns: int = 12 * MS
    #: CPU burst of the daemon each period.
    daemon_burst_ns: int = 600 * US


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration: one object fully describes a machine + policy."""

    cpu: CpuConfig = field(default_factory=CpuConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    cstate: CStateConfig = field(default_factory=CStateConfig)
    os_path: OsPathConfig = field(default_factory=OsPathConfig)
    iommu: IommuConfig = field(default_factory=IommuConfig)
    gpu: GpuConfig = field(default_factory=GpuConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    mitigation: MitigationConfig = field(default_factory=MitigationConfig)
    qos: QosConfig = field(default_factory=QosConfig)
    housekeeping: HousekeepingConfig = field(default_factory=HousekeepingConfig)
    seed: int = 42

    def with_mitigation(self, **kwargs) -> "SystemConfig":
        """Return a copy with mitigation fields replaced."""
        return replace(self, mitigation=replace(self.mitigation, **kwargs))

    def with_qos(self, **kwargs) -> "SystemConfig":
        """Return a copy with QoS fields replaced."""
        return replace(self, qos=replace(self.qos, **kwargs))

    def with_seed(self, seed: int) -> "SystemConfig":
        return replace(self, seed=seed)

    @property
    def label(self) -> str:
        mitigation = self.mitigation.label
        if self.qos.enabled:
            return f"{mitigation} + QoS({self.qos.label})"
        return mitigation

    def __hash__(self) -> int:
        """The fields' hash, computed once per instance.

        Every run-key lookup hashes its config.  The value lives in the
        instance ``__dict__`` but is no field, so ``asdict``,
        :meth:`stable_json` and :meth:`schema_digest` never see it, and
        :meth:`__getstate__` leaves it out of pickled and copied state: a
        ``spawn`` child hashes strings with another seed.
        """
        try:
            return self.__dict__["_hash"]
        except KeyError:
            values = tuple(getattr(self, f.name) for f in dataclasses.fields(self))
            value = self.__dict__["_hash"] = hash(values)
            return value

    def __getstate__(self) -> dict:
        """The fields, without the cached hash (pickling and copying)."""
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # ------------------------------------------------------------------
    # Stable hashing (persistent run caching across processes/invocations)
    # ------------------------------------------------------------------
    def stable_json(self) -> str:
        """A canonical JSON rendering of every field of this configuration.

        Key order is sorted and separators are fixed, so two equal configs
        — in any two Python processes — produce byte-identical strings.
        Floats round-trip exactly (JSON uses ``repr``-precision).  Rendered
        once per distinct value (:func:`_render`).
        """
        return _render(self)

    def stable_digest(self) -> str:
        """SHA-256 of :meth:`stable_json`: a process-independent identity."""
        return hashlib.sha256(self.stable_json().encode("utf-8")).hexdigest()

    @classmethod
    def schema_digest(cls) -> str:
        """SHA-256 over the config *schema*: class, field names, and types.

        Adding, removing, renaming, or retyping any field — at any nesting
        level — changes this digest, which the persistent run cache folds
        into its code fingerprint so stale results can never be returned
        against a reshaped configuration space.
        """
        digest = hashlib.sha256()
        seen = set()

        def walk(klass) -> None:
            if klass in seen:
                return
            seen.add(klass)
            digest.update(klass.__name__.encode("utf-8"))
            for field_info in dataclasses.fields(klass):
                digest.update(field_info.name.encode("utf-8"))
                digest.update(str(field_info.type).encode("utf-8"))
                if field_info.default_factory is not dataclasses.MISSING and (
                    dataclasses.is_dataclass(field_info.default_factory)
                ):
                    walk(field_info.default_factory)

        walk(cls)
        return digest.hexdigest()


@lru_cache(maxsize=4096)
def _render(config: SystemConfig) -> str:
    """:meth:`SystemConfig.stable_json`, memoized by value.

    Each planning pass builds fresh but equal configs, and sorting its
    keys, digesting a sweep's config and bundling a postmortem all render
    them; an equal config reuses the first rendering.
    """
    return json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":")
    )
