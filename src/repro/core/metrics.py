"""Result metrics extracted from a finished system run."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class CpuAppMetrics:
    """What the paper measures on the CPU application side."""

    name: str
    instructions: float
    productive_ns: float
    pollution_stall_ns: float
    extra_l1_misses: float
    extra_mispredicts: float
    l1_miss_increase: float
    mispredict_increase: float


@dataclass(frozen=True)
class GpuMetrics:
    """What the paper measures on the accelerator side."""

    name: str
    progress_ns: float
    faults_issued: int
    faults_completed: int
    stall_ns: float
    mean_ssr_latency_ns: float
    max_ssr_latency_ns: float

    def performance_metric(self) -> float:
        """The paper's GPU metric: SSR rate for ubench, progress otherwise."""
        if self.name == "ubench":
            return float(self.faults_completed)
        return self.progress_ns


@dataclass(frozen=True)
class SystemMetrics:
    """Everything measured over one fixed-horizon co-execution run."""

    horizon_ns: int
    config_label: str
    cpu_app: Optional[CpuAppMetrics]
    gpu: Optional[GpuMetrics]
    cc6_residency: float
    mode_totals_ns: Dict[str, float]
    interrupts_per_core: List[int]
    ipis: int
    ssr_interrupts: int
    ssr_requests: int
    ssr_time_ns: float
    ssr_completed: int
    context_switches: int
    core_wakeups: int
    qos_throttle_events: int = 0
    qos_total_delay_ns: float = 0.0
    #: Per-core mode breakdown (core id -> mode -> ns).
    per_core_modes_ns: Dict[int, Dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-serializable rendering (see :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemMetrics":
        """Rebuild from :meth:`as_dict` output (e.g. parsed back from JSON).

        The round-trip is exact: JSON preserves ints and ``repr``-precision
        floats, so ``from_dict(json.loads(json.dumps(as_dict())))``
        compares equal to the original, bit for bit.
        """
        payload = dict(data)
        cpu_app = payload.pop("cpu_app", None)
        gpu = payload.pop("gpu", None)
        per_core = payload.pop("per_core_modes_ns", {})
        return cls(
            cpu_app=CpuAppMetrics(**cpu_app) if cpu_app is not None else None,
            gpu=GpuMetrics(**gpu) if gpu is not None else None,
            # JSON stringifies int dict keys; restore them.
            per_core_modes_ns={
                int(core): dict(modes) for core, modes in per_core.items()
            },
            **payload,
        )

    @property
    def total_interrupts(self) -> int:
        return sum(self.interrupts_per_core)

    @property
    def ssr_time_fraction(self) -> float:
        """Fraction of total CPU time spent servicing SSRs."""
        cores = len(self.interrupts_per_core)
        return self.ssr_time_ns / (self.horizon_ns * cores) if cores else 0.0

    def cpu_energy_mj(self, power) -> float:
        """CPU-complex energy over the run, in millijoules.

        ``power`` is a :class:`repro.config.PowerConfig`.  Active modes
        (user/kernel/irq/switch) draw ``active_w``; awake-idle and C-state
        transitions draw ``idle_w``; CC6 draws ``cc6_w``.
        """
        active = sum(
            self.mode_totals_ns.get(mode, 0.0)
            for mode in ("user", "kernel", "irq", "switch")
        )
        idle = self.mode_totals_ns.get("idle", 0.0) + self.mode_totals_ns.get(
            "transition", 0.0
        )
        cc6 = self.mode_totals_ns.get("cc6", 0.0)
        joules = (
            active * power.active_w + idle * power.idle_w + cc6 * power.cc6_w
        ) / 1e9
        return joules * 1e3

    def average_cpu_power_w(self, power) -> float:
        """Mean CPU-complex power draw over the run, in watts."""
        cores = len(self.interrupts_per_core)
        if not cores or not self.horizon_ns:
            return 0.0
        return self.cpu_energy_mj(power) / 1e3 / (self.horizon_ns / 1e9)

    def interrupt_balance(self) -> float:
        """max/mean interrupt ratio across cores (1.0 = perfectly even)."""
        counts = self.interrupts_per_core
        mean = sum(counts) / len(counts) if counts else 0.0
        return max(counts) / mean if mean else 0.0

    def summary(self) -> str:
        """A human-readable one-run report (examples and debugging)."""
        lines = [
            f"run: {self.config_label}, horizon {self.horizon_ns / 1e6:.1f} ms",
        ]
        if self.cpu_app is not None:
            lines.append(
                f"cpu app {self.cpu_app.name}: "
                f"{self.cpu_app.instructions / 1e6:.1f}M instructions, "
                f"pollution stall {self.cpu_app.pollution_stall_ns / 1e6:.2f} ms"
            )
        if self.gpu is not None:
            lines.append(
                f"gpu {self.gpu.name}: {self.gpu.progress_ns / 1e6:.2f} ms compute, "
                f"{self.gpu.faults_completed} SSRs done, "
                f"mean latency {self.gpu.mean_ssr_latency_ns / 1e3:.1f} us"
            )
        lines.append(
            f"ssr time {self.ssr_time_fraction * 100:.1f}% of CPU, "
            f"cc6 {self.cc6_residency * 100:.1f}%, "
            f"irqs {self.total_interrupts} (balance {self.interrupt_balance():.2f}), "
            f"ipis {self.ipis}, ctx {self.context_switches}"
        )
        if self.qos_throttle_events:
            lines.append(
                f"qos: {self.qos_throttle_events} throttles, "
                f"{self.qos_total_delay_ns / 1e6:.2f} ms injected delay"
            )
        return "\n".join(lines)


def ratio(value: float, reference: float) -> float:
    """``value / reference``; NaN (undefined) when the reference is 0.

    A GPU app that made no progress over a very short horizon gives its
    normalized cells no reference; they render as ``n/a``.
    """
    return value / reference if reference else math.nan


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's aggregate for Pareto charts).

    NaN if any value is undefined; non-positive values are skipped.
    """
    if any(math.isnan(v) for v in values):
        return math.nan
    cleaned = [v for v in values if v > 0]
    if not cleaned:
        return 0.0
    return math.exp(sum(math.log(v) for v in cleaned) / len(cleaned))
