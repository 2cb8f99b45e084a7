"""Adaptive Pareto autotuner for mitigation & QoS configuration.

The paper's prescriptive results — the Fig. 7/8 Pareto frontiers over
mitigation combinations and the Section VI QoS governor with its
"administrator-chosen" threshold — are the output of a *configuration
search*.  This package makes that search systematic instead of a
hand-picked grid:

* :mod:`repro.search.space` — a typed :class:`SearchSpace` declaring the
  tunable knobs over :class:`~repro.config.SystemConfig` with validation
  and a canonical point encoding;
* :mod:`repro.search.objectives` — extraction of the paper's objective
  vector (CPU performance vs. the no-SSR baseline, GPU progress, mean
  SSR latency, CC6 residency) from :func:`~repro.core.run_workloads`
  metrics;
* :mod:`repro.search.samplers` — deterministic seeded proposal
  strategies (full grid, low-discrepancy lattice, local mutation around
  the current frontier) with zero reliance on global ``random`` state;
* :mod:`repro.search.driver` — the budgeted successive-rounds loop:
  every candidate batch rides :func:`~repro.core.execute_runs` (warm
  worker pool, cost-model LJF dispatch, two-level run cache), the
  archive lives on :func:`~repro.core.pareto_frontier_map`, and every
  evaluated point journals to a resumable JSONL sweep-state file;
* :mod:`repro.search.report` — frontier text table and a self-contained
  single-file HTML chart;
* :mod:`repro.search.cli` — the ``hiss-sweep`` console script
  (``run`` / ``resume`` / ``report`` / ``validate``).

Determinism contract: the same seed + budget yields a bit-for-bit
identical frontier archive; a sweep killed mid-round and resumed
converges to the same archive as an uninterrupted run; and a repeated
identical sweep executes zero simulations (every evaluation is served
from the run cache).
"""

from .driver import (
    SweepDriver,
    SweepInterrupted,
    SweepResult,
    SweepSettings,
    load_journal,
    replay_journal,
)
from .objectives import OBJECTIVES, EvaluationContext, Objective, maximized_vector
from .samplers import (
    GridSampler,
    LatticeSampler,
    MutationSampler,
    SplitMix64,
    derive_seed,
    sampler_for_round,
)
from .space import Knob, SearchSpace, default_space
from .report import frontier_table, render_html

__all__ = [
    "EvaluationContext",
    "GridSampler",
    "Knob",
    "LatticeSampler",
    "MutationSampler",
    "OBJECTIVES",
    "Objective",
    "SearchSpace",
    "SplitMix64",
    "SweepDriver",
    "SweepInterrupted",
    "SweepResult",
    "SweepSettings",
    "default_space",
    "derive_seed",
    "frontier_table",
    "load_journal",
    "maximized_vector",
    "render_html",
    "replay_journal",
    "sampler_for_round",
]
