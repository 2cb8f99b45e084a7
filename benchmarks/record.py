"""Record a perf-trajectory snapshot: per-figure wall-clock -> JSON.

Writes ``BENCH_<git-sha>.json`` so the repo accumulates a comparable
performance history across commits::

    PYTHONPATH=src python benchmarks/record.py                    # full quick set
    PYTHONPATH=src python benchmarks/record.py --figures fig3a fig4 --jobs 4
    PYTHONPATH=src python benchmarks/record.py --figures fig3a --service

Each snapshot records the per-figure wall-clock of a cold run (in-memory
cache cleared first), the grid/horizon used, and the environment, plus the
prewarm split when ``--jobs`` enables the parallel engine.  With
``--service`` the figures are additionally served through an in-process
``HissService`` and the serving tier's stage latencies (queue wait, sim
time, end-to-end) land in the snapshot under ``service``.  Compare two
snapshots with a plain diff or jq.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone

from repro.core import clear_cache, configure_disk_cache, prewarm_experiments
from repro.experiments import run_experiment
from repro.experiments.common import QUICK_CPU_NAMES, QUICK_GPU_NAMES
from repro.experiments.run_all import DEFAULT_ORDER, experiment_kwargs

#: Default simulated horizon for snapshot runs (matches the bench suite).
DEFAULT_HORIZON_MS = 15.0


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record_profile_overhead(figure: str, kwargs_for) -> dict:
    """Time one figure's run set with attribution off, then on.

    Both passes simulate the same keys serially from a cold in-memory
    cache; the on-pass builds a fresh per-run
    :class:`~repro.profiling.Profiler` exactly like ``--profile`` does.
    The delta is the ledger/sampler bookkeeping — the number
    docs/observability.md quotes as the profiler's overhead.
    """
    from repro.core.experiment import simulate_run
    from repro.core.planner import plan_runs
    from repro.profiling import Profiler

    keys, skipped = plan_runs([figure], kwargs_for)
    if not keys:
        return {"figure": figure, "runs": 0, "skipped": skipped}
    clear_cache()
    start = time.time()
    for key in keys:
        simulate_run(key)
    off_s = time.time() - start
    clear_cache()
    start = time.time()
    for key in keys:
        simulate_run(key, profiler=Profiler())
    on_s = time.time() - start
    clear_cache()
    doc = {
        "figure": figure,
        "runs": len(keys),
        "profiler_off_s": round(off_s, 3),
        "profiler_on_s": round(on_s, 3),
    }
    if off_s > 0:
        doc["overhead_pct"] = round(100.0 * (on_s - off_s) / off_s, 1)
    print(
        f"profile overhead ({figure}, {len(keys)} runs): "
        f"off {off_s:.2f}s, on {on_s:.2f}s"
        + (f" (+{doc['overhead_pct']:.1f}%)" if "overhead_pct" in doc else "")
    )
    return doc


def record_pool_probe(client, figure: str, args) -> dict:
    """Cold-vs-warm batch latency through the serving tier's worker pool.

    Submits the same figure twice with every cache level emptied between
    rounds, so both batches simulate identical work — the only difference
    is that the first pays worker start-up (the pool spawns) while the
    second lands on already-warm workers.  The spawned-worker delta of
    the warm round must be zero; the e2e gap is the cost the warm pool
    retired.
    """
    from repro.core import shared_pool_stats
    from repro.core.experiment import get_disk_cache, set_disk_cache

    # A persistent cache would serve the warm round without simulating;
    # detach it so both rounds execute the same runs.
    saved_disk = get_disk_cache()
    set_disk_cache(None)
    rounds = {}
    try:
        for phase in ("cold", "warm"):
            clear_cache()
            body = client.submit_with_backoff(
                [figure], quick=True, horizon_ms=args.horizon_ms
            )
            job_id = body["job"]["id"]
            status = client.wait(job_id, timeout_s=1800)
            trace = client.trace(job_id)
            root = next(
                span for span in trace["spans"] if span["span_id"] == "root"
            )
            stats = shared_pool_stats()
            rounds[phase] = {
                "e2e_s": round(root["duration_s"], 4),
                "runs_executed": status["runs_executed"],
                "spawned_workers": stats["spawned_workers"],
                "warm_hits": stats["warm_hits"],
            }
            # Evict so the next round is not served by job-level dedupe.
            client.evict(job_id)
    finally:
        set_disk_cache(saved_disk)
        clear_cache()
    cold, warm = rounds["cold"], rounds["warm"]
    doc = {
        "figure": figure,
        "cold": cold,
        "warm": warm,
        "workers_spawned_by_warm_batch": (
            warm["spawned_workers"] - cold["spawned_workers"]
        ),
    }
    if warm["e2e_s"] > 0:
        doc["cold_over_warm"] = round(cold["e2e_s"] / warm["e2e_s"], 3)
    print(
        f"pool probe ({figure}): cold {cold['e2e_s']:.2f}s, "
        f"warm {warm['e2e_s']:.2f}s, warm batch spawned "
        f"{doc['workers_spawned_by_warm_batch']:g} worker(s)"
    )
    return doc


def record_flight_overhead(events: int = 20_000) -> dict:
    """Time the ops-log hot path with the flight recorder off, then on.

    Both passes push the same synthetic event stream through an
    ``OpsLog`` with no stream attached — the disabled pass is the
    daemon's default (one attribute check per record and out), the
    enabled pass tees every record into a :class:`FlightRecorder` ring
    with the standard trigger set (no SLO alerts fire, so this is pure
    observe/append cost).  The delta is the number
    docs/observability.md quotes as the recorder's always-on overhead.
    """
    from repro.obsd import FlightRecorder, default_triggers
    from repro.service.obs import OpsLog

    log = OpsLog(None)
    start = time.perf_counter()
    for index in range(events):
        log.log("job.started", job=f"job-{index:06d}", batch_jobs=4)
    off_s = time.perf_counter() - start

    recorder = FlightRecorder(store=None, triggers=default_triggers())
    log.tee = recorder.observe
    start = time.perf_counter()
    for index in range(events):
        log.log("job.started", job=f"job-{index:06d}", batch_jobs=4)
    on_s = time.perf_counter() - start
    log.tee = None

    doc = {
        "events": events,
        "recorder_off_ns_per_event": round(off_s / events * 1e9, 1),
        "recorder_on_ns_per_event": round(on_s / events * 1e9, 1),
        "ring_entries": len(recorder.ring),
        "ring_decimations": recorder.ring.decimations,
    }
    print(
        f"flight overhead ({events} events): off "
        f"{doc['recorder_off_ns_per_event']:.0f}ns/event, on "
        f"{doc['recorder_on_ns_per_event']:.0f}ns/event "
        f"({recorder.ring.decimations} decimations)"
    )
    return doc


def record_sweep(args) -> dict:
    """Cold-vs-warm autotuner sweep pair: evaluations/sec and cache traffic.

    Runs the same small ``repro.search`` sweep twice against one private
    disk cache: the cold pass simulates everything, the warm pass (fresh
    in-memory cache, same seed and budget) must be served entirely from
    disk.  The snapshot records evaluations/sec for both passes and the
    warm pass's cache-served fraction — the number that should stay at
    1.0 as the subsystem evolves.
    """
    import shutil
    import tempfile

    from repro.core.experiment import get_disk_cache, set_disk_cache
    from repro.core.runcache import DiskCache
    from repro.search import SweepDriver, SweepSettings, default_space

    saved_disk = get_disk_cache()
    workdir = tempfile.mkdtemp(prefix="hiss-sweep-bench-")
    settings = SweepSettings(
        seed=17,
        budget=8,
        round_size=4,
        strategy="evolve",
        horizon_ns=int(args.horizon_ms * 1_000_000),
        jobs=args.jobs,
    )
    phases = {}
    try:
        set_disk_cache(DiskCache(os.path.join(workdir, "cache")))
        for phase in ("cold", "warm"):
            clear_cache()
            driver = SweepDriver(
                default_space(), settings,
                state_path=os.path.join(workdir, f"{phase}.jsonl"),
            )
            start = time.time()
            result = driver.run()
            elapsed = time.time() - start
            served_total = result.simulations + result.cache_served
            phases[phase] = {
                "elapsed_s": round(elapsed, 3),
                "evaluations": result.evaluations,
                "rounds": result.rounds,
                "simulations": result.simulations,
                "cache_served": result.cache_served,
                "frontier_size": result.frontier_size,
                "evals_per_s": (
                    round(result.evaluations / elapsed, 2) if elapsed > 0 else 0.0
                ),
                "cache_served_fraction": (
                    round(result.cache_served / served_total, 3)
                    if served_total else 0.0
                ),
            }
            print(
                f"sweep {phase}: {result.evaluations} evals in {elapsed:.2f}s "
                f"({phases[phase]['evals_per_s']:.1f}/s), "
                f"simulated {result.simulations}, "
                f"cache-served {result.cache_served}"
            )
    finally:
        set_disk_cache(saved_disk)
        clear_cache()
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "seed": settings.seed,
        "budget": settings.budget,
        "round_size": settings.round_size,
        "strategy": settings.strategy,
        "horizon_ms": args.horizon_ms,
        "jobs": settings.jobs,
        "cold": phases["cold"],
        "warm": phases["warm"],
    }


def record_service(figures, args) -> dict:
    """Serve ``figures`` through an in-process daemon; return its latencies.

    Each figure is one job over real HTTP (so the measured end-to-end
    includes receive/plan/queue/render, exactly what a client sees), run
    against a fresh cache so the sim-time numbers are cold like the CLI
    figures above them.  The first figure is additionally submitted
    cold-then-warm to measure what the resident pool saves
    (see :func:`record_pool_probe`).
    """
    from repro.core import configure_pool, shutdown_shared_pool
    from repro.service import HissService, ServiceClient
    from repro.service.obs import LATENCY_HISTOGRAMS

    clear_cache()
    doc: dict = {"jobs": {}}
    # At least two workers so batches actually use the pool, and `spawn`
    # workers so the start-up cost the warm pool retires is the real
    # thing (interpreter boot + full import), not a fork's copy-on-write
    # discount.
    service_jobs = args.jobs if args.jobs and args.jobs != 1 else 2
    shutdown_shared_pool()
    configure_pool(start_method="spawn")
    with HissService(port=0, jobs=service_jobs, qos_threshold=10.0) as svc:
        client = ServiceClient(svc.url, timeout_s=60)
        doc["pool"] = record_pool_probe(client, figures[0], args)
        for experiment_id in figures:
            body = client.submit_with_backoff(
                [experiment_id], quick=True, horizon_ms=args.horizon_ms
            )
            job_id = body["job"]["id"]
            status = client.wait(job_id, timeout_s=1800)
            trace = client.trace(job_id)
            stages = {
                span["span_id"]: round(span["duration_s"], 4)
                for span in trace["spans"]
                if span["span_id"] in ("submit", "queue", "batch", "render", "root")
            }
            doc["jobs"][experiment_id] = {
                "state": status["state"],
                "planned_runs": status["planned_runs"],
                "runs_executed": status["runs_executed"],
                "stages_s": stages,
            }
            print(f"service {experiment_id}: e2e {stages.get('root', 0.0):.2f}s")
        histograms = svc.metrics.histograms
        for label, name in LATENCY_HISTOGRAMS:
            histogram = histograms.get(name)
            if histogram is None:
                continue
            summary = histogram.summary()
            doc[label] = {
                "count": summary["count"],
                "p50_s": round(summary["percentiles"]["p50"], 4),
                "p95_s": round(summary["percentiles"]["p95"], 4),
                "p99_s": round(summary["percentiles"]["p99"], 4),
                "max_s": round(summary["max"], 4),
            }
    shutdown_shared_pool()
    clear_cache()
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--figures", nargs="*", default=None,
        help=f"experiment ids to time (default: {' '.join(DEFAULT_ORDER)})",
    )
    parser.add_argument(
        "--horizon-ms", type=float, default=DEFAULT_HORIZON_MS,
        help="simulated horizon per run in milliseconds",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="fan simulations out over N workers first (0 = all cores)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="optional persistent run cache (see docs/performance.md)",
    )
    parser.add_argument(
        "--output-dir", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "trajectory"),
        help="directory receiving BENCH_<sha>.json",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="also serve the figures through an in-process HissService and "
        "record its stage latencies (queue_wait/sim/e2e)",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="also run a cold-vs-warm repro.search sweep pair and record "
        "evaluations/sec plus the warm pass's cache-served fraction "
        "(given alone, skips the figure timings)",
    )
    parser.add_argument(
        "--profile-figure", default="fig4", metavar="ID",
        help="figure whose runs are timed profiler-off vs profiler-on "
        "(empty string skips the comparison)",
    )
    args = parser.parse_args(argv)

    if args.sweep and args.figures is None:
        figures = []  # sweep-only snapshot: skip the figure timings
        args.profile_figure = ""
    else:
        figures = args.figures or list(DEFAULT_ORDER)
    def kwargs_for(experiment_id: str) -> dict:
        return experiment_kwargs(experiment_id, quick=True, horizon_ms=args.horizon_ms)

    clear_cache()
    configure_disk_cache(args.cache_dir)

    snapshot = {
        "sha": git_sha(),
        "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "jobs": args.jobs,
        "horizon_ms": args.horizon_ms,
        "quick_grid": {"cpu": QUICK_CPU_NAMES, "gpu": QUICK_GPU_NAMES},
        "figures": {},
    }

    total_start = time.time()
    if args.jobs != 1:
        report = prewarm_experiments(figures, kwargs_for, jobs=args.jobs)
        snapshot["prewarm"] = {
            "planned": report.planned,
            "memory_hits": report.memory_hits,
            "disk_hits": report.disk_hits,
            "executed": report.executed,
            "workers": report.workers,
            "plan_s": round(report.plan_s, 3),
            "execute_s": round(report.execute_s, 3),
            "predicted_core_s": round(report.predicted_core_s, 3),
            "failed": len(report.failed),
        }
        if report.pool:
            snapshot["prewarm"]["pool"] = report.pool
        print(report.summary())
    for experiment_id in figures:
        result = run_experiment(experiment_id, **kwargs_for(experiment_id))
        snapshot["figures"][experiment_id] = round(result.elapsed_s, 3)
        print(f"{experiment_id}: {result.elapsed_s:.2f}s")
    snapshot["total_s"] = round(time.time() - total_start, 3)

    if args.profile_figure:
        snapshot["profile_overhead"] = record_profile_overhead(
            args.profile_figure, kwargs_for
        )
        snapshot["flight_overhead"] = record_flight_overhead()

    if args.sweep:
        snapshot["sweep"] = record_sweep(args)

    if args.service:
        snapshot["service"] = record_service(figures, args)

    os.makedirs(args.output_dir, exist_ok=True)
    path = os.path.join(args.output_dir, f"BENCH_{snapshot['sha']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path} (total {snapshot['total_s']:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
