"""Experiment harnesses: one module per paper table/figure.

Importing this package populates :data:`repro.experiments.common.REGISTRY`;
use :func:`repro.experiments.common.run_experiment` or the
``hiss experiments`` CLI to regenerate any figure.
"""

from . import (  # noqa: F401 - imported for registration side effects
    energy,
    fig3a_cpu_slowdown,
    fig3b_gpu_slowdown,
    fig4_cc6,
    fig5_uarch,
    fig6_mitigations,
    fig7_pareto_ubench,
    fig8_pareto_apps,
    fig9_cc6_mitigations,
    fig12_qos,
    stats_ipi,
    sweeps,
    table1_ssr_complexity,
)
from .common import (
    EXPERIMENT_HORIZON_NS,
    ExperimentResult,
    QUICK_CPU_NAMES,
    QUICK_GPU_NAMES,
    REGISTRY,
    run_experiment,
)

__all__ = [
    "EXPERIMENT_HORIZON_NS",
    "ExperimentResult",
    "QUICK_CPU_NAMES",
    "QUICK_GPU_NAMES",
    "REGISTRY",
    "run_experiment",
]
