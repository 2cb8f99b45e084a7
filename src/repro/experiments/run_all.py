"""Command-line entry point: regenerate any or all paper figures/tables.

Usage::

    hiss-experiments --list
    hiss-experiments fig3a fig4
    hiss-experiments --all --quick
    python -m repro.experiments.run_all fig12a

``--quick`` trims the workload grid (6 CPU apps, 4 GPU apps) for a fast
smoke pass; the full grid reproduces every bar the paper plots.

``--jobs N`` fans the simulations out over N worker processes (0 = one
per CPU core; default 1 = serial).  Results are bit-for-bit identical to
a serial run — the simulator is deterministic and workers execute the
exact same code.  ``--cache-dir DIR`` adds a persistent result cache so
repeated invocations skip already-simulated runs; entries are invalidated
automatically when the simulator's code changes.  See docs/performance.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

# Importing the modules populates the registry.
from . import (  # noqa: F401
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
    QUICK_CPU_NAMES,
    QUICK_GPU_NAMES,
    REGISTRY,
    UNPLANNABLE,
    format_cell,
    run_experiment,
)

#: Experiments that accept workload-list arguments.
_TAKES_CPU = {
    "fig3a", "fig3b", "fig5", "fig6a", "fig6b", "fig6c", "fig6d", "fig6e",
    "fig6f", "fig7", "fig8", "fig12a", "fig12b",
}
_TAKES_GPU = {"fig3a", "fig3b", "fig4", "fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f", "fig8"}

#: A sensible execution order (roughly the paper's).
DEFAULT_ORDER = [
    "table1",
    "fig3a",
    "fig3b",
    "fig4",
    "fig5",
    "ipi",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig6d",
    "fig6e",
    "fig6f",
    "fig7",
    "fig8",
    "fig9",
    "fig12a",
    "fig12b",
]

#: Ablation sweeps beyond the paper's figures (run with --extensions).
EXTENSION_ORDER = [
    "energy",
    "sweep_coalesce",
    "sweep_outstanding",
    "sweep_dispatch",
    "sweep_qos",
]


def listed_experiments() -> List[str]:
    """Every registered experiment id, in execution order.

    Derived from ``REGISTRY`` — the curated orders come first, then any
    registered experiment they missed (sorted) — so registering an
    experiment without updating an order list can never make it invisible
    to ``--list`` or to the serving API.
    """
    curated = [e for e in DEFAULT_ORDER + EXTENSION_ORDER if e in REGISTRY]
    stragglers = sorted(set(REGISTRY) - set(curated))
    return curated + stragglers


def experiment_kwargs(
    experiment_id: str, quick: bool = False, horizon_ms: Optional[float] = None
) -> dict:
    """The kwargs one experiment runs with under the given CLI options.

    Shared by the CLI and the serving daemon (``repro.service``) so a job
    submitted over HTTP sees exactly the grid ``hiss-experiments`` would.
    """
    kwargs: dict = {}
    if quick:
        if experiment_id in _TAKES_CPU:
            kwargs["cpu_names"] = QUICK_CPU_NAMES
        if experiment_id in _TAKES_GPU:
            kwargs["gpu_names"] = [
                g for g in QUICK_GPU_NAMES if experiment_id != "fig8" or g != "ubench"
            ]
    if horizon_ms is not None and experiment_id != "table1":
        kwargs["horizon_ns"] = int(horizon_ms * 1_000_000)
    return kwargs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hiss-experiments",
        description="Reproduce the figures/tables of 'Interference from GPU "
        "System Service Requests' (IISWC 2018) on the simulator.",
    )
    from ..version import add_version_flag

    add_version_flag(parser)
    parser.add_argument("experiments", nargs="*", help="experiment ids (e.g. fig3a)")
    parser.add_argument("--all", action="store_true", help="run every paper experiment")
    parser.add_argument(
        "--extensions", action="store_true", help="also run the ablation sweeps"
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--quick", action="store_true", help="reduced workload grid for a fast pass"
    )
    parser.add_argument(
        "--horizon-ms",
        type=float,
        default=None,
        help="override the simulated horizon in milliseconds",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write all results as a JSON document",
    )
    parser.add_argument(
        "--markdown", metavar="FILE", default=None,
        help="also write all results as a markdown report",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a structured event trace of every simulated run and "
        "write it as Chrome trace_event JSON (open in Perfetto or "
        "chrome://tracing; inspect with hiss-trace)",
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=2_000_000,
        help="trace ring-buffer size in events (oldest dropped beyond this)",
    )
    parser.add_argument(
        "--profile", metavar="FILE", default=None,
        help="attribute every simulated run's SSR interference (blame "
        "ledger + sim-time samples) and write the profile bundle as JSON "
        "(render with hiss-report; already-cached runs are re-simulated "
        "so every run gets a profile)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="simulate runs on N worker processes (0 = one per CPU core; "
        "default 1 = serial; results are identical either way)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist simulated runs under DIR and reuse them across "
        "invocations (auto-invalidated when the simulator changes)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in listed_experiments():
            marker = "  (serial-only)" if experiment_id in UNPLANNABLE else ""
            print(f"{experiment_id}{marker}")
        return 0

    targets = list(args.experiments)
    if args.all:
        targets = list(DEFAULT_ORDER)
    if args.extensions:
        targets += [t for t in EXTENSION_ORDER if t not in targets]
    if not targets:
        parser.error("no experiments given (use --all, --list, or name some)")

    unknown = [t for t in targets if t not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; known: {sorted(REGISTRY)}")

    tracer = None
    if args.trace:
        from ..telemetry import Tracer, set_active_tracer

        tracer = Tracer(capacity=args.trace_capacity)
        set_active_tracer(tracer)

    collector = None
    if args.profile:
        from ..profiling import ProfileCollector, set_active_collector

        collector = ProfileCollector()
        # Systems built outside the planned grid (e.g. table1's inline
        # simulations) pick the collector up as the process default.
        set_active_collector(collector)

    if args.cache_dir:
        from ..core import configure_disk_cache

        configure_disk_cache(args.cache_dir)

    def kwargs_for(experiment_id: str) -> dict:
        return experiment_kwargs(
            experiment_id, quick=args.quick, horizon_ms=args.horizon_ms
        )

    # Profiling forces the plan/execute path even serially: a profile only
    # exists for an *executed* run, so cached keys must be re-simulated.
    if args.jobs != 1 or collector is not None:
        from ..core import prewarm_experiments

        report = prewarm_experiments(
            targets,
            kwargs_for,
            jobs=args.jobs,
            tracer=tracer,
            unplannable=UNPLANNABLE,
            collector=collector,
        )
        print(report.summary())
        print()

    results = []
    for experiment_id in targets:
        result = run_experiment(experiment_id, **kwargs_for(experiment_id))
        results.append(result)
        print(result.render())
        print(f"[{experiment_id} finished in {result.elapsed_s:.1f}s]\n")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump([r.as_dict() for r in results], handle, indent=2)
        print(f"wrote {args.json}")
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(render_markdown(results))
        print(f"wrote {args.markdown}")
    if args.cache_dir:
        from ..core import get_disk_cache

        cache = get_disk_cache()
        print(
            f"cache {cache.directory}: {cache.hits} hits, {cache.misses} misses, "
            f"{cache.stores} stored this run, {len(cache)} entries on disk"
        )
    if tracer is not None:
        from ..telemetry import set_active_tracer, write_chrome_trace

        set_active_tracer(None)
        write_chrome_trace(tracer, args.trace, label=f"hiss:{','.join(targets)}")
        print(
            f"wrote {args.trace} ({len(tracer)} events, {tracer.dropped} dropped; "
            f"inspect with 'hiss-trace summary {args.trace}')"
        )
    if collector is not None:
        from ..profiling import set_active_collector

        set_active_collector(None)
        bundle = collector.bundle(
            meta={
                "experiments": targets,
                "quick": args.quick,
                "horizon_ms": args.horizon_ms,
            }
        )
        with open(args.profile, "w") as handle:
            json.dump(bundle, handle)
        print(
            f"wrote {args.profile} ({len(collector)} run profile(s); render "
            f"with 'hiss-report render {args.profile} -o report.html')"
        )
    return 0


def render_markdown(results) -> str:
    """Render a list of ExperimentResults as a markdown report."""
    lines = ["# Reproduced results", ""]
    for result in results:
        lines.append(f"## {result.experiment_id} — {result.title}")
        lines.append("")
        header = "| " + " | ".join(str(c) for c in result.columns) + " |"
        lines.append(header)
        lines.append("|" + "---|" * len(result.columns))
        for row in result.rows:
            lines.append("| " + " | ".join(format_cell(v) for v in row) + " |")
        if result.notes:
            lines.append("")
            lines.append(f"*{result.notes}*")
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
