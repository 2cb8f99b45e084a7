"""Figure 8: Pareto trade-off of mitigations for the real GPU applications.

Like Figure 7 but aggregated over the non-microbenchmark GPU workloads
(the paper plots the four most interesting combinations).  Paper
headlines: the default is again not Pareto optimal; the monolithic bottom
half dominates on GPU throughput; steering+coalescing trades ~35% GPU
performance for ~10% more CPU performance.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import SystemConfig
from ..core import ParetoPoint, frontier_labels, geomean, ratio, run_workloads
from ..mitigations import combination
from ..workloads import GPU_APP_NAMES, PARSEC_NAMES
from .common import EXPERIMENT_HORIZON_NS, ExperimentResult, pareto_cell, register

#: The combinations the paper's Figure 8 plots.
PAPER_FIG8_COMBOS = [
    "Default",
    "Monolithic_bottom_half",
    "Intr_to_single_core + Intr_coalescing",
    "Intr_to_single_core + Monolithic_bottom_half",
]


@register("fig8")
def run(
    config: Optional[SystemConfig] = None,
    cpu_names: Optional[List[str]] = None,
    gpu_names: Optional[List[str]] = None,
    combos: Optional[List[str]] = None,
    horizon_ns: int = EXPERIMENT_HORIZON_NS,
) -> ExperimentResult:
    config = config or SystemConfig()
    cpu_names = cpu_names or PARSEC_NAMES
    gpu_names = gpu_names or GPU_APP_NAMES
    combos = combos or PAPER_FIG8_COMBOS
    points: List[ParetoPoint] = []
    idle_metrics: Dict[str, float] = {
        gpu_name: run_workloads(None, gpu_name, True, config, horizon_ns)
        .gpu.performance_metric()
        for gpu_name in gpu_names
    }
    for label in combos:
        combo_config = combination(config, label)
        cpu_values: List[float] = []
        gpu_values: List[float] = []
        for gpu_name in gpu_names:
            for cpu_name in cpu_names:
                pair = run_workloads(cpu_name, gpu_name, True, combo_config, horizon_ns)
                baseline = run_workloads(cpu_name, gpu_name, False, config, horizon_ns)
                cpu_values.append(
                    pair.cpu_app.instructions / baseline.cpu_app.instructions
                )
                gpu_values.append(
                    ratio(pair.gpu.performance_metric(), idle_metrics[gpu_name])
                )
        points.append(
            ParetoPoint(
                label=label,
                cpu_performance=geomean(cpu_values),
                gpu_performance=geomean(gpu_values),
            )
        )
    frontier = set(frontier_labels(points))
    result = ExperimentResult(
        experiment_id="fig8",
        title="Mitigation-combination Pareto chart (real GPU apps)",
        columns=["combination", "cpu_perf_gmean", "gpu_perf_gmean", "pareto_optimal"],
        notes="aggregated over " + ", ".join(gpu_names),
    )
    for point in points:
        result.add_row(
            point.label,
            point.cpu_performance,
            point.gpu_performance,
            pareto_cell(point, frontier),
        )
    return result
