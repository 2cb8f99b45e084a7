"""``characterize``: the paper's Sec. IV figure set on the serial path.

One *pass* is what ``hiss-experiments fig3a fig3b fig4 fig5 ipi --quick
--horizon-ms 5`` does in a fresh process: every figure assembled through
``run_experiment`` from a cold run memo, each of the 56 unique runs
simulated once by ``simulate_run``.  The timed phase runs
``round(seconds / PASS_S)`` passes (at least one), so the work is fixed
for a given ``--seconds`` and takes about that long on the reference host.
Pass ``i`` uses ``SystemConfig().with_seed(100 * seed + i)``, so a run
averages over several seeds' run costs.

A *job* here is one SSR run: the runs whose interference the figures
measure, 28 of the 56 and most of the host time (the other 28 are
pinned-memory baselines and GPU-alone runs of a few ms each).

Every figure must assemble with finite cells, and re-simulating the
first SSR run must reproduce its ``SystemMetrics``.  The run prints a
SHA-256 over every run's ``SystemMetrics`` so a speed-only change can show
its simulated statistics are identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Tuple

from bench import (
    HORIZON_MS,
    Outcome,
    RunRecorder,
    SpanLog,
    is_ssr_run,
    median,
    patched,
    quantile,
    tail,
)

FIGURES = ("fig3a", "fig3b", "fig4", "fig5", "ipi")
#: Host seconds of one pass on the reference host (2.1 GHz Xeon KVM guest).
PASS_S = 10.0


def setup(seed: int):
    """Import the program and fill its per-process calibration cache."""
    from repro.config import SystemConfig
    from repro.experiments.common import QUICK_CPU_NAMES
    from repro.workloads import parsec, steady_state_for

    config = SystemConfig()
    for name in QUICK_CPU_NAMES:
        steady_state_for(parsec(name), config.cpu)
    return config


def metrics_digest(runs: List[Tuple[object, object, object]]) -> str:
    """SHA-256 over ``(run-key digest, SystemMetrics)`` of every run."""
    from repro.core.runcache import run_key_digest

    rows = sorted(
        run_key_digest(key) + json.dumps(metrics.as_dict(), sort_keys=True)
        for key, metrics, _span in runs
    )
    digest = hashlib.sha256()
    for row in rows:
        digest.update(row.encode("utf-8"))
    return digest.hexdigest()


def _finite_cells(result) -> bool:
    return all(
        math.isfinite(value)
        for row in result.rows
        for value in row[1:]
        if isinstance(value, float)
    )


def run(seed: int, seconds: float, traced: bool, config, sampler=None) -> Outcome:
    import repro.core.experiment as experiment
    from repro.core import clear_cache
    from repro.core.pool import run_label
    from repro.experiments.common import run_experiment
    from repro.experiments.run_all import experiment_kwargs

    outcome = Outcome()
    spans = SpanLog()
    recorder = RunRecorder(experiment.simulate_run, spans)
    kwargs = {f: experiment_kwargs(f, quick=True, horizon_ms=HORIZON_MS) for f in FIGURES}
    if sampler is not None:
        sampler.start()
    with patched(experiment, "simulate_run", recorder):
        for index in range(max(1, round(seconds / PASS_S))):
            pass_config = config.with_seed(100 * seed + index)
            clear_cache()
            recorder.begin_unit()
            for figure in FIGURES:
                try:
                    with spans.span("run_experiment"):
                        result = run_experiment(figure, config=pass_config, **kwargs[figure])
                    ok, detail = _finite_cells(result), "non-finite cell"
                except Exception as error:  # a figure that raises is a failed op
                    ok, detail = False, f"{type(error).__name__}: {error}"
                outcome.attempted += 1
                if not ok:
                    outcome.failed += 1
                    outcome.notes.append(f"{figure}: {detail}")
            recorder.end_unit()
    if sampler is not None:
        sampler.stop()
    clear_cache()

    passes = recorder.units
    first = next((r for r in passes[0]["runs"] if is_ssr_run(r[0])), None)
    outcome.check(
        "re-simulating the first SSR run reproduces its SystemMetrics",
        first is not None and experiment.simulate_run(first[0]) == first[1],
        run_label(first[0]) if first else "no SSR run finished",
    )
    outcome.verdict(
        "every figure assembles with finite cells",
        outcome.failed == 0,
        f"{outcome.failed} of {len(FIGURES) * len(passes)} figures failed",
    )
    runs = len(recorder.all_runs())
    per_pass = len(passes[0]["runs"])
    job_ms = recorder.ssr_run_ms()
    job_tail = tail(job_ms)
    outcome.metrics.update(
        {
            "sim_ms_per_s": runs * HORIZON_MS / recorder.wall_s(),
            "evals_per_s": runs / recorder.wall_s(),
            "job_p50_ms": quantile(job_ms, 50.0),
            "job_tail_ms": job_tail.value,
        }
    )
    outcome.notes += [
        f"SystemMetrics sha256 {metrics_digest(recorder.all_runs())} "
        f"({per_pass} runs per pass, {len(passes)} passes)",
        f"job = one SSR run; job_tail_ms {job_tail.describe('ms')}",
        f"host slowdown {recorder.mean_slowdown():.3f}; unadjusted sim_ms_per_s "
        f"{runs * HORIZON_MS / recorder.wall_s(adjusted=False):.3f}, job_p50_ms "
        f"{quantile(recorder.ssr_run_ms(adjusted=False), 50.0):.3f}",
    ]
    outcome.samples["probe_ms"] = recorder.probes_ms()
    if traced:
        outcome.metrics.update(layer_metrics(recorder, spans))
    return outcome


def simulation_counts(runs) -> Dict[str, float]:
    """``sim.*`` counts over one unit of work, plus host µs per SSR."""
    ssr_runs = [(m, span) for key, m, span in runs if is_ssr_run(key)]
    ssrs = sum(m.ssr_completed for m, _ in ssr_runs)
    ssr_host_s = sum(span.duration_s for _, span in ssr_runs)
    return {
        "sim.runs": float(len(runs)),
        "sim.ssrs_completed": float(sum(m.ssr_completed for _k, m, _s in runs)),
        "sim.host_us_per_ssr": 1e6 * ssr_host_s / ssrs if ssrs else 0.0,
    }


def run_split(runs) -> Dict[str, float]:
    """Median host time of SSR and of SSR-free runs."""
    ssr = [s.duration_s * 1000.0 for k, _m, s in runs if is_ssr_run(k)]
    nossr = [s.duration_s * 1000.0 for k, _m, s in runs if not is_ssr_run(k)]
    return {
        "core.simulate_run_ssr_p50_ms": median(ssr),
        "core.simulate_run_nossr_p50_ms": median(nossr),
    }


def layer_metrics(recorder: RunRecorder, spans: SpanLog) -> Dict[str, float]:
    metrics = run_split(recorder.all_runs())
    metrics.update(simulation_counts(recorder.units[0]["runs"]))
    metrics["experiments.assemble_ms_per_pass"] = (
        1000.0 * spans.self_time_s("run_experiment") / len(recorder.units)
    )
    metrics["host.slowdown"] = recorder.mean_slowdown()
    return metrics
