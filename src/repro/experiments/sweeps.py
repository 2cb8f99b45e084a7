"""Ablation sweeps over the design choices DESIGN.md calls out.

Beyond reproducing the paper's figures, these sweeps vary one mechanism at
a time to show *why* the system behaves as it does:

* ``sweep_coalesce`` — the IOMMU coalescing window from 0 to 4x the paper's
  maximum: CPU relief vs. blocking-GPU latency cost (Section V-B's knob).
* ``sweep_outstanding`` — the GPU's outstanding-SSR hardware limit: the
  backpressure substrate of the Section VI QoS mechanism.
* ``sweep_dispatch`` — the bottom-half scheduler dispatch latency: the
  quantity the monolithic handler eliminates (its GPU benefit should
  scale with this).
* ``sweep_qos`` — a fine-grained threshold curve for the governor,
  including the adaptive mode as the final row.

Like every figure, a sweep is plannable: ``hiss experiments`` and the
serving tier record its runs, execute them through the planner (on the
warm worker pool at ``--jobs`` > 1), and then build the rows from the
cache.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from ..config import SystemConfig
from ..core import run_workloads
from .common import EXPERIMENT_HORIZON_NS, ExperimentResult, register


@register("sweep_coalesce")
def sweep_coalesce(
    config: Optional[SystemConfig] = None,
    cpu_name: str = "x264",
    windows_us: Optional[List[int]] = None,
    horizon_ns: int = EXPERIMENT_HORIZON_NS,
) -> ExperimentResult:
    config = config or SystemConfig()
    windows_us = windows_us or [0, 4, 13, 26, 52]
    result = ExperimentResult(
        experiment_id="sweep_coalesce",
        title="Ablation: IOMMU coalescing window",
        columns=[
            "window_us",
            "cpu_perf(ubench)",
            "ssr_interrupts(ubench)",
            "sssp_latency_us",
            "sssp_progress_ms",
        ],
        notes="cpu_perf vs no-SSR pair; paper hardware max is 13 us",
    )
    cpu_base = run_workloads(cpu_name, "ubench", False, config, horizon_ns)
    for window in windows_us:
        swept = config.with_mitigation(coalesce_window_ns=window * 1_000)
        storm = run_workloads(cpu_name, "ubench", True, swept, horizon_ns)
        blocking = run_workloads(None, "sssp", True, swept, horizon_ns)
        result.add_row(
            str(window),
            storm.cpu_app.instructions / cpu_base.cpu_app.instructions,
            storm.ssr_interrupts,
            blocking.gpu.mean_ssr_latency_ns / 1e3,
            blocking.gpu.progress_ns / 1e6,
        )
    return result


@register("sweep_outstanding")
def sweep_outstanding(
    config: Optional[SystemConfig] = None,
    limits: Optional[List[int]] = None,
    horizon_ns: int = EXPERIMENT_HORIZON_NS,
) -> ExperimentResult:
    config = config or SystemConfig()
    limits = limits or [1, 2, 4, 8, 16, 32, 64]
    result = ExperimentResult(
        experiment_id="sweep_outstanding",
        title="Ablation: GPU outstanding-SSR hardware limit",
        columns=["limit", "ubench_ssrs_per_s", "mean_latency_us", "throttled_ssrs_per_s"],
        notes="the bounded window is what makes backpressure QoS possible",
    )
    qos = config.with_qos(enabled=True, ssr_time_threshold=0.01)
    for limit in limits:
        swept = replace(config, gpu=replace(config.gpu, max_outstanding_ssrs=limit))
        free = run_workloads(None, "ubench", True, swept, horizon_ns)
        swept_qos = replace(qos, gpu=replace(qos.gpu, max_outstanding_ssrs=limit))
        throttled = run_workloads("x264", "ubench", True, swept_qos, horizon_ns)
        seconds = horizon_ns / 1e9
        result.add_row(
            str(limit),
            free.gpu.faults_completed / seconds,
            free.gpu.mean_ssr_latency_ns / 1e3,
            throttled.gpu.faults_completed / seconds,
        )
    return result


@register("sweep_dispatch")
def sweep_dispatch(
    config: Optional[SystemConfig] = None,
    latencies_us: Optional[List[int]] = None,
    horizon_ns: int = EXPERIMENT_HORIZON_NS,
) -> ExperimentResult:
    config = config or SystemConfig()
    latencies_us = latencies_us or [0, 6, 18, 36, 72]
    result = ExperimentResult(
        experiment_id="sweep_dispatch",
        title="Ablation: bottom-half dispatch latency vs monolithic gain",
        columns=["dispatch_us", "split_sssp_ms", "monolithic_sssp_ms", "monolithic_gain"],
        notes="the monolithic handler's benefit tracks the latency it removes",
    )
    for latency in latencies_us:
        swept = replace(
            config,
            os_path=replace(config.os_path, bottom_half_dispatch_ns=latency * 1_000),
        )
        split = run_workloads("streamcluster", "sssp", True, swept, horizon_ns)
        mono = run_workloads(
            "streamcluster",
            "sssp",
            True,
            swept.with_mitigation(monolithic_bottom_half=True),
            horizon_ns,
        )
        result.add_row(
            str(latency),
            split.gpu.progress_ns / 1e6,
            mono.gpu.progress_ns / 1e6,
            mono.gpu.progress_ns / split.gpu.progress_ns,
        )
    return result


@register("sweep_qos")
def sweep_qos(
    config: Optional[SystemConfig] = None,
    cpu_name: str = "x264",
    thresholds: Optional[List[float]] = None,
    horizon_ns: int = EXPERIMENT_HORIZON_NS,
) -> ExperimentResult:
    config = config or SystemConfig()
    thresholds = thresholds or [0.25, 0.10, 0.05, 0.02, 0.01]
    result = ExperimentResult(
        experiment_id="sweep_qos",
        title="Ablation: QoS threshold curve (plus adaptive mode)",
        columns=["threshold", "cpu_perf", "ssr_time_pct", "ubench_rate"],
        notes="cpu_perf vs no-SSR pair; ubench_rate vs idle-CPU run",
    )
    base = run_workloads(cpu_name, "ubench", False, config, horizon_ns)
    idle = run_workloads(None, "ubench", True, config, horizon_ns)

    def add(label: str, qos_config: SystemConfig) -> None:
        metrics = run_workloads(cpu_name, "ubench", True, qos_config, horizon_ns)
        result.add_row(
            label,
            metrics.cpu_app.instructions / base.cpu_app.instructions,
            metrics.ssr_time_fraction * 100.0,
            metrics.gpu.faults_completed / idle.gpu.faults_completed,
        )

    add("off", config)
    for threshold in thresholds:
        add(
            f"{threshold * 100:.0f}%",
            config.with_qos(enabled=True, ssr_time_threshold=threshold),
        )
    add("adaptive", config.with_qos(enabled=True, adaptive=True))
    return result
