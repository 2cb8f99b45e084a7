"""System assembly: one heterogeneous SoC instance per measured run.

A :class:`System` wires the environment, kernel, IOMMU + driver, optional
QoS governor, and the attached workloads, then runs a fixed horizon of
simulated time and extracts :class:`~repro.core.metrics.SystemMetrics`.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import SystemConfig
from ..gpu import GpuDevice, SignalPath
from ..iommu import Iommu, IommuDriver
from ..oskernel import Kernel, accounting as acct
from ..profiling import NULL_PROFILER, get_active_collector
from ..qos import AdaptiveQosGovernor, QosGovernor
from ..sim import Environment, RngRegistry
from ..telemetry import get_active_tracer
from ..workloads import CpuApp, CpuAppProfile, GpuAppProfile
from .metrics import CpuAppMetrics, GpuMetrics, SystemMetrics

#: Default measured horizon: long enough for steady-state behaviour of all
#: workload patterns (several barrier and fault-phase periods).
DEFAULT_HORIZON_NS = 50_000_000


class System:
    """A simulated heterogeneous SoC: CPUs + OS + IOMMU + GPU(s)."""

    def __init__(self, config: Optional[SystemConfig] = None, tracer=None, profiler=None):
        self.config = config or SystemConfig()
        self.env = Environment()
        self.rng = RngRegistry(self.config.seed)
        #: Telemetry sink: an explicit tracer wins; otherwise the process
        #: active tracer (set by ``hiss-experiments --trace``), which
        #: defaults to the no-op NULL_TRACER.
        self.tracer = tracer if tracer is not None else get_active_tracer()
        #: Attribution sink: an explicit profiler wins; otherwise the
        #: process active collector (set by ``hiss-experiments
        #: --profile``) hands out a fresh per-run profiler, defaulting to
        #: the no-op NULL_PROFILER.  Profiling is a pure side channel:
        #: metrics are byte-for-byte identical with it on or off.
        if profiler is None:
            collector = get_active_collector()
            profiler = (
                collector.new_profiler() if collector is not None else NULL_PROFILER
            )
        self.profiler = profiler
        self.kernel = Kernel(
            self.env, self.config, self.rng,
            tracer=self.tracer, ledger=self.profiler.ledger,
        )
        self.iommu = Iommu(self.kernel)
        self.driver = IommuDriver(self.kernel, self.iommu)
        self.signal_path = SignalPath(self.kernel)
        if self.config.qos.enabled:
            governor_class = (
                AdaptiveQosGovernor if self.config.qos.adaptive else QosGovernor
            )
            self.kernel.qos_governor = governor_class(self.kernel)
        self.cpu_app: Optional[CpuApp] = None
        self.gpus: List[GpuDevice] = []
        self._ran = False

    # ------------------------------------------------------------------
    # Workload attachment
    # ------------------------------------------------------------------
    def add_cpu_app(self, profile: CpuAppProfile) -> CpuApp:
        """Attach the CPU application (at most one per system)."""
        if self.cpu_app is not None:
            raise RuntimeError("a CPU application is already attached")
        self.cpu_app = CpuApp(self.kernel, profile)
        return self.cpu_app

    def add_gpu_workload(
        self, profile: GpuAppProfile, ssr_enabled: bool = True
    ) -> GpuDevice:
        """Attach a GPU workload.  Multiple GPUs model accelerator-rich SoCs."""
        gpu = GpuDevice(self.kernel, self.iommu, profile, ssr_enabled=ssr_enabled)
        self.gpus.append(gpu)
        return gpu

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, horizon_ns: int = DEFAULT_HORIZON_NS) -> SystemMetrics:
        """Boot everything, simulate ``horizon_ns``, and collect metrics."""
        if self._ran:
            raise RuntimeError("a System instance runs exactly once")
        self._ran = True
        self.kernel.boot()
        self.driver.start()
        if self.cpu_app is not None:
            self.cpu_app.start()
        for gpu in self.gpus:
            gpu.start()
        if self.profiler.enabled:
            self.profiler.start(self)
        self.env.run(until=horizon_ns)
        self.kernel.finalize()
        if self.profiler.enabled:
            self.profiler.finish_run(self, horizon_ns)
        return self._collect(horizon_ns)

    def _collect(self, horizon_ns: int) -> SystemMetrics:
        kernel = self.kernel
        cpu_metrics = None
        if self.cpu_app is not None:
            app = self.cpu_app
            cpu_metrics = CpuAppMetrics(
                name=app.profile.name,
                instructions=app.instructions_retired,
                productive_ns=app.productive_ns,
                pollution_stall_ns=acct.ordered_sum(
                    t.pollution_stall_ns for t in app.threads
                ),
                extra_l1_misses=app.extra_l1_misses,
                extra_mispredicts=app.extra_mispredicts,
                l1_miss_increase=app.l1_miss_increase(),
                mispredict_increase=app.mispredict_increase(),
            )
        gpu_metrics = None
        if self.gpus:
            primary = self.gpus[0]
            gpu_metrics = GpuMetrics(
                name=primary.profile.name,
                progress_ns=primary.progress_ns,
                faults_issued=primary.faults_issued,
                faults_completed=primary.faults_completed,
                stall_ns=primary.stall_ns,
                mean_ssr_latency_ns=self.iommu.latency.mean_ns,
                max_ssr_latency_ns=self.iommu.latency.max_ns,
            )
        governor = kernel.qos_governor
        return SystemMetrics(
            horizon_ns=horizon_ns,
            config_label=self.config.label,
            cpu_app=cpu_metrics,
            gpu=gpu_metrics,
            cc6_residency=kernel.cc6_residency(horizon_ns),
            mode_totals_ns={
                mode: float(kernel.accounting.total(mode)) for mode in acct.ALL_MODES
            },
            interrupts_per_core=kernel.interrupts_per_core(),
            ipis=kernel.ipis_total(),
            ssr_interrupts=kernel.counters.get(acct.CTR_SSR_INTERRUPT),
            ssr_requests=kernel.counters.get(acct.CTR_SSR_REQUEST),
            ssr_time_ns=float(kernel.ssr_accounting.total_ns),
            ssr_completed=kernel.ssr_accounting.completed,
            context_switches=kernel.counters.get(acct.CTR_CONTEXT_SWITCH),
            core_wakeups=kernel.counters.get(acct.CTR_CORE_WAKEUP),
            qos_throttle_events=governor.throttle_events if governor else 0,
            qos_total_delay_ns=float(governor.total_delay_ns) if governor else 0.0,
            per_core_modes_ns=kernel.accounting.snapshot(),
        )
