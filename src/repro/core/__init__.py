"""The paper's primary contribution layer: HISS measurement machinery.

Assembles full systems, runs normalized co-execution experiments, computes
Pareto frontiers over mitigations, and projects accelerator-rich SoCs.
"""

from .experiment import (
    clear_cache,
    configure_disk_cache,
    cpu_mitigation_ratio,
    cpu_relative_performance,
    get_disk_cache,
    gpu_mitigation_ratio,
    gpu_relative_performance,
    make_run_key,
    planning,
    planning_active,
    run_workloads,
    set_disk_cache,
    simulate_run,
)
from .metrics import CpuAppMetrics, GpuMetrics, SystemMetrics, geomean, ratio
from .planner import (
    PrewarmReport,
    execute_runs,
    plan_runs,
    prewarm_experiments,
    resolve_jobs,
)
from .pool import (
    PoolStats,
    WorkerPool,
    configure_pool,
    order_longest_first,
    shared_pool,
    shared_pool_stats,
    shutdown_shared_pool,
)
from .runcache import (
    CostModel,
    DiskCache,
    RunKey,
    code_fingerprint,
    cost_model,
    reset_code_fingerprint,
    run_key_digest,
    set_cost_ledger,
)
from .pareto import (
    ParetoPoint,
    frontier_labels,
    pareto_frontier,
    pareto_frontier_map,
    vector_dominates,
)
from .projection import ProjectionPoint, project_accelerator_scaling
from .tracing import (
    STAGE_SEQUENCE,
    StageLatency,
    format_breakdown,
    latency_breakdown,
    total_mean_latency_ns,
)
from .system import DEFAULT_HORIZON_NS, System

__all__ = [
    "CostModel",
    "CpuAppMetrics",
    "DEFAULT_HORIZON_NS",
    "DiskCache",
    "GpuMetrics",
    "ParetoPoint",
    "PoolStats",
    "PrewarmReport",
    "ProjectionPoint",
    "RunKey",
    "System",
    "SystemMetrics",
    "WorkerPool",
    "clear_cache",
    "code_fingerprint",
    "configure_disk_cache",
    "configure_pool",
    "cost_model",
    "execute_runs",
    "get_disk_cache",
    "make_run_key",
    "order_longest_first",
    "plan_runs",
    "planning",
    "planning_active",
    "prewarm_experiments",
    "reset_code_fingerprint",
    "resolve_jobs",
    "run_key_digest",
    "set_cost_ledger",
    "set_disk_cache",
    "shared_pool",
    "shared_pool_stats",
    "shutdown_shared_pool",
    "simulate_run",
    "cpu_mitigation_ratio",
    "cpu_relative_performance",
    "frontier_labels",
    "STAGE_SEQUENCE",
    "StageLatency",
    "format_breakdown",
    "geomean",
    "ratio",
    "gpu_mitigation_ratio",
    "latency_breakdown",
    "total_mean_latency_ns",
    "gpu_relative_performance",
    "pareto_frontier",
    "pareto_frontier_map",
    "project_accelerator_scaling",
    "run_workloads",
    "vector_dominates",
]
