"""Table I: system service request kinds, complexity, and measured latency.

Reproduces the paper's qualitative catalog and grounds it quantitatively:
for each SSR kind we run a small dedicated workload that issues only that
kind of request on otherwise-idle CPUs and report the measured end-to-end
service latency through the full handling chain.
"""

from __future__ import annotations

from typing import Optional

from ..config import SystemConfig
from ..core import System
from ..iommu import SSR_CATALOG
from ..workloads import GpuAppProfile
from .common import ExperimentResult, register

#: A light probe workload: modest request rate, non-blocking.
_PROBE_HORIZON_NS = 5_000_000


def _measure_kind(kind_name: str, config: SystemConfig) -> float:
    """Mean end-to-end latency (us) of one SSR kind on an idle system."""
    system = System(config)
    if kind_name == "signal":
        # Signals use the direct S_SENDMSG path, not the IOMMU.
        def sender():
            for _ in range(40):
                yield system.env.timeout(100_000)
                system.signal_path.send()

        system.kernel.boot()
        system.driver.start()
        system.env.process(sender())
        system.env.run(until=_PROBE_HORIZON_NS)
        system.kernel.finalize()
        return system.signal_path.latency.mean_ns / 1_000.0
    profile = GpuAppProfile(
        name=f"probe-{kind_name}",
        compute_chunk_ns=100_000,
        faults_per_chunk=2.0,
        blocking=False,
        fault_spacing_ns=10_000,
        ssr_kind=kind_name,
    )
    system.add_gpu_workload(profile, ssr_enabled=True)
    system.run(_PROBE_HORIZON_NS)
    return system.iommu.latency.mean_ns / 1_000.0


@register("table1", plannable=False)  # probes Systems directly, not run_workloads
def run(config: Optional[SystemConfig] = None) -> ExperimentResult:
    config = config or SystemConfig()
    result = ExperimentResult(
        experiment_id="table1",
        title="SSR kinds: complexity and measured end-to-end latency",
        columns=["ssr", "complexity", "worker_service_us", "measured_latency_us", "description"],
        notes="latency measured through the full chain on idle CPUs",
    )
    for kind in SSR_CATALOG.values():
        service_ns = (
            config.os_path.page_fault_service_ns
            if kind.name == "page_fault"
            else kind.service_ns
        )
        result.add_row(
            kind.name,
            kind.complexity,
            service_ns / 1_000.0,
            _measure_kind(kind.name, config),
            kind.description,
        )
    return result
