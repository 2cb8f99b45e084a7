"""``mitigate``: serial Pareto sweeps over the default 5-knob space.

Each sweep is what ``hiss-sweep run --strategy lattice --budget 32
--round-size 16 --horizon-ms 5 --cache-dir DIR`` runs (x264 x ubench,
``--jobs 1``): a fresh cache directory and journal, a cold run memo, and
the sweep driver the CLI builds — called directly so the base config can
be ``SystemConfig().with_seed(100 * seed + i)`` for sweep ``i``.  The
lattice strategy evaluates the same low-discrepancy spread of coalescing,
steering, monolithic bottom halves, outstanding-SSR limits and QoS
back-off every time, so the mix of mitigations is fixed and the seed
varies the simulations; the evolve strategy's mutation rounds would make
the mix, and with it the cost of a sweep, depend on the seed.  The timed
phase runs ``round(seconds / SWEEP_S)`` sweeps (at least one).

Mitigated runs change how often and how long kernel windows disturb the
``uarch`` state, and the sweep journals and writes the disk cache, which
``characterize`` never does.  A *job* is one SSR run, as on
``characterize``: here nearly every run.  Each sweep must evaluate its
whole budget, its journal must pass ``hiss-sweep validate`` and its
archive must hold a non-empty frontier.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from typing import Dict, List

from bench import (
    HORIZON_MS,
    Outcome,
    RunRecorder,
    SpanLog,
    fresh_dir,
    median,
    patched,
    quantile,
    tail,
)
from characterize import run_split, simulation_counts

#: Evaluations per sweep, and candidates per round.
BUDGET = 32
ROUND_SIZE = 16
#: Host seconds of one sweep on the reference host (2.1 GHz Xeon KVM guest).
SWEEP_S = 10.0


def setup(seed: int):
    """Import the program's sweep driver and the ``hiss-sweep`` entry point."""
    from repro.search import driver  # noqa: F401
    from repro.search.cli import main

    return main


def _quiet(fn, argv: List[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = fn(argv)
    return code, out.getvalue()


def run(seed: int, seconds: float, traced: bool, sweep_main, workdir: str,
        sampler=None) -> Outcome:
    import repro.core.experiment as experiment
    import repro.search.driver as driver
    from repro.config import SystemConfig
    from repro.core import clear_cache, configure_disk_cache
    from repro.core.runcache import DiskCache
    from repro.search.space import default_space
    from repro.telemetry import MetricsRegistry, SpanRecorder

    outcome = Outcome()
    spans = SpanLog()
    recorder = RunRecorder(experiment.simulate_run, spans)
    execute = driver.execute_runs
    put = DiskCache.put

    def traced_execute_runs(keys, *args, **kwargs):
        with spans.span("execute_runs"):
            report = execute(keys, *args, **kwargs)
        recorder.units[-1]["rounds"].append((report.predicted_core_s, report.execute_s))
        return report

    def traced_put(self, key, metrics, elapsed_s=None):
        with spans.span("DiskCache.put"):
            return put(self, key, metrics, elapsed_s=elapsed_s)

    settings = driver.SweepSettings(
        budget=BUDGET, round_size=ROUND_SIZE, strategy="lattice",
        horizon_ns=int(HORIZON_MS * 1_000_000),
    )
    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(experiment, "simulate_run", recorder))
        if traced:
            stack.enter_context(patched(driver, "execute_runs", traced_execute_runs))
            stack.enter_context(patched(DiskCache, "put", traced_put))
        if sampler is not None:
            sampler.start()
        for index in range(max(1, round(seconds / SWEEP_S))):
            folder = fresh_dir(workdir, f"sweep-{index}")
            clear_cache()  # a new CLI process starts with a cold memo
            sweep = recorder.begin_unit()
            sweep.update(index=index, state=os.path.join(folder, "sweep.jsonl"),
                         rounds=[], result=None)
            configure_disk_cache(os.path.join(folder, "cache"))
            sweeper = driver.SweepDriver(
                default_space(), settings, state_path=sweep["state"],
                config=SystemConfig().with_seed(100 * seed + index),
                registry=MetricsRegistry(), recorder=SpanRecorder(),
            )
            try:
                sweep["result"] = sweeper.run()
            except Exception as error:  # a sweep that raises is failed work
                outcome.notes.append(f"sweep {index}: {type(error).__name__}: {error}")
            recorder.end_unit()
            sweep["round_ms"] = [
                1000.0 * span.duration_s
                for span in sweeper.recorder.spans()
                if span.category == "search"
            ]
        if sampler is not None:
            sampler.stop()
    clear_cache()
    configure_disk_cache(None)

    sweeps = recorder.units
    evaluations = 0
    for sweep in sweeps:
        evaluated = sweep["result"].evaluations if sweep["result"] else 0
        evaluations += evaluated
        outcome.attempted += BUDGET
        outcome.failed += BUDGET - evaluated
        valid, _printed = _quiet(sweep_main, ["validate", "--state", sweep["state"]])
        outcome.check(
            f"sweep {sweep['index']}: journal passes hiss-sweep validate",
            valid == 0, f"exit {valid}",
        )
        frontier = _frontier(sweep["state"])
        outcome.check(
            f"sweep {sweep['index']}: archive frontier non-empty",
            frontier > 0, f"{frontier} points",
        )

    runs = len(recorder.all_runs())
    job_ms = recorder.ssr_run_ms()
    job_tail = tail(job_ms)
    outcome.metrics.update(
        {
            "sim_ms_per_s": runs * HORIZON_MS / recorder.wall_s(),
            "evals_per_s": evaluations / recorder.wall_s(),
            "job_p50_ms": quantile(job_ms, 50.0),
            "job_tail_ms": job_tail.value,
        }
    )
    outcome.notes += [
        f"{len(sweeps)} sweeps, {evaluations} evaluations, {runs} runs; "
        f"job = one SSR run; job_tail_ms {job_tail.describe('ms')}",
        f"host slowdown {recorder.mean_slowdown():.3f}; unadjusted evals_per_s "
        f"{evaluations / recorder.wall_s(adjusted=False):.3f}, job_p50_ms "
        f"{quantile(recorder.ssr_run_ms(adjusted=False), 50.0):.3f}",
    ]
    outcome.samples["probe_ms"] = recorder.probes_ms()
    if traced:
        outcome.metrics.update(layer_metrics(recorder, spans))
    return outcome


def _frontier(state: str) -> int:
    from repro.search.driver import ARCHIVE_SUFFIX

    try:
        with open(state + ARCHIVE_SUFFIX, "r", encoding="utf-8") as handle:
            return len(json.load(handle).get("frontier", []))
    except (OSError, ValueError):
        return 0


def layer_metrics(recorder: RunRecorder, spans: SpanLog) -> Dict[str, float]:
    sweeps = recorder.units
    metrics = run_split(recorder.all_runs())
    metrics.update(simulation_counts(sweeps[0]["runs"]))
    first = sweeps[0]["result"]
    rounds = [r for sweep in sweeps for r in sweep["rounds"]]
    measured = sum(actual for _predicted, actual in rounds)
    metrics.update(
        {
            "search.round_p50_ms": median(
                [ms for sweep in sweeps for ms in sweep["round_ms"]]
            ),
            "search.simulations": float(first.simulations if first else 0),
            "search.cache_served": float(first.cache_served if first else 0),
            "runcache.put_p50_ms": median(
                [s.duration_s * 1000.0 for s in spans.named("DiskCache.put")]
            ),
            "cost_model.predicted_over_actual": (
                sum(predicted for predicted, _actual in rounds) / measured
                if measured else 0.0
            ),
            "host.slowdown": recorder.mean_slowdown(),
        }
    )
    return metrics
