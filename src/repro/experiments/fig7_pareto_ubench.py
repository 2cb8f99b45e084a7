"""Figure 7: Pareto trade-off of mitigation combinations (microbenchmark).

For each of the eight mitigation combinations: X = geometric mean of the
CPU applications' performance while ubench generates SSRs (normalized to
no-SSR runs), Y = geometric mean of ubench's SSR completion rate across
those co-executions (normalized to ubench with idle CPUs under the default
configuration).  Paper headlines: the default configuration is not Pareto
optimal; steering+coalescing gives the best CPU performance (+10%) while
speeding ubench up ~45%; the monolithic handler gives the best ubench
throughput.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import SystemConfig
from ..core import ParetoPoint, frontier_labels, geomean, ratio, run_workloads
from ..mitigations import ALL_COMBINATIONS, combination
from ..workloads import PARSEC_NAMES
from .common import EXPERIMENT_HORIZON_NS, ExperimentResult, pareto_cell, register


def pareto_points(
    config: SystemConfig,
    cpu_names: List[str],
    gpu_name: str,
    combos: List[str],
    horizon_ns: int,
) -> List[ParetoPoint]:
    """Compute (CPU perf, GPU perf) geomeans per combination."""
    default_idle = run_workloads(None, gpu_name, True, config, horizon_ns)
    idle_metric = default_idle.gpu.performance_metric()
    points = []
    for label in combos:
        combo_config = combination(config, label)
        cpu_values = []
        gpu_values = []
        for cpu_name in cpu_names:
            pair = run_workloads(cpu_name, gpu_name, True, combo_config, horizon_ns)
            baseline = run_workloads(cpu_name, gpu_name, False, config, horizon_ns)
            cpu_values.append(pair.cpu_app.instructions / baseline.cpu_app.instructions)
            gpu_values.append(ratio(pair.gpu.performance_metric(), idle_metric))
        points.append(
            ParetoPoint(
                label=label,
                cpu_performance=geomean(cpu_values),
                gpu_performance=geomean(gpu_values),
            )
        )
    return points


@register("fig7")
def run(
    config: Optional[SystemConfig] = None,
    cpu_names: Optional[List[str]] = None,
    combos: Optional[List[str]] = None,
    horizon_ns: int = EXPERIMENT_HORIZON_NS,
) -> ExperimentResult:
    config = config or SystemConfig()
    cpu_names = cpu_names or PARSEC_NAMES
    combos = combos or list(ALL_COMBINATIONS)
    points = pareto_points(config, cpu_names, "ubench", combos, horizon_ns)
    frontier = set(frontier_labels(points))
    result = ExperimentResult(
        experiment_id="fig7",
        title="Mitigation-combination Pareto chart (ubench)",
        columns=["combination", "cpu_perf_gmean", "ubench_perf_gmean", "pareto_optimal"],
        notes="X: CPU perf vs no-SSR; Y: ubench SSR rate vs idle-CPU default",
    )
    for point in points:
        result.add_row(
            point.label,
            point.cpu_performance,
            point.gpu_performance,
            pareto_cell(point, frontier),
        )
    return result
