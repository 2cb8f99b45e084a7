"""Shared infrastructure for the per-figure experiment harnesses.

Every experiment module registers a function that produces an
:class:`ExperimentResult` — a labeled table whose rows/series mirror what
the paper's figure or table reports.  Results render as aligned text and
serialize to plain dicts for programmatic use.

Runs are memoized process-wide (see :mod:`repro.core.experiment`), so
figures that share baselines — most of them — reuse each other's work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

#: Default measured horizon for experiments (simulated nanoseconds).  Long
#: enough for several fault-burst and barrier periods of every workload.
EXPERIMENT_HORIZON_NS = 20_000_000

#: Reduced workload sets for --quick runs.
QUICK_CPU_NAMES = [
    "blackscholes",
    "facesim",
    "fluidanimate",
    "raytrace",
    "streamcluster",
    "x264",
]
QUICK_GPU_NAMES = ["bfs", "sssp", "xsbench", "ubench"]


def format_cell(value: Any) -> str:
    """One table cell as text: floats to 3 places, NaN (undefined) as n/a."""
    if isinstance(value, float):
        return "n/a" if math.isnan(value) else f"{value:.3f}"
    return str(value)


@dataclass
class ExperimentResult:
    """One reproduced table/figure as a labeled grid of numbers."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: str = ""
    elapsed_s: float = 0.0

    def add_row(self, label: str, *values: Any) -> None:
        self.rows.append([label, *values])

    def column(self, name: str) -> List[Any]:
        """All values of one named column (excluding the label column)."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def cell(self, row_label: str, column: str) -> Any:
        index = self.columns.index(column)
        for row in self.rows:
            if row[0] == row_label:
                return row[index]
        raise KeyError(f"no row labeled {row_label!r}")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
            "elapsed_s": self.elapsed_s,
        }

    def render(self) -> str:
        """Render as an aligned, monospaced text table."""
        table = [[format_cell(v) for v in row] for row in self.rows]
        header = [str(c) for c in self.columns]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in table)) if table else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def pareto_cell(point: Any, frontier: set) -> str:
    """A Pareto table's ``pareto_optimal`` cell: yes, no, or n/a when the
    point has an undefined (NaN) coordinate."""
    if math.isnan(point.cpu_performance) or math.isnan(point.gpu_performance):
        return "n/a"
    return "yes" if point.label in frontier else "no"


#: The experiment registry: id -> callable(**kwargs) -> ExperimentResult.
REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}

#: Experiments the parallel planner must not pre-plan: they simulate
#: outside ``run_workloads`` (directly through System), so planning-mode
#: recording cannot see — or would actually execute — their runs.
UNPLANNABLE: set = set()


def register(experiment_id: str, plannable: bool = True) -> Callable:
    """Decorator: add an experiment function to the registry.

    ``plannable=False`` marks experiments whose simulations bypass
    ``run_workloads``; the parallel engine leaves them to the serial pass.
    """

    def decorator(fn: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        if experiment_id in REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        REGISTRY[experiment_id] = fn
        if not plannable:
            UNPLANNABLE.add(experiment_id)
        return fn

    return decorator


def run_experiment(experiment_id: str, **kwargs: Any) -> ExperimentResult:
    """Run one registered experiment, stamping its wall-clock time."""
    try:
        fn = REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        ) from None
    start = time.time()
    result = fn(**kwargs)
    result.elapsed_s = time.time() - start
    return result
