"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

One workload run::

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 20 --trace 0

prints notes, check verdicts, an ``E2E {...}`` line, and as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` the run is traced (spans around the
calls into the program plus the SIGPROF layer sampler) and the metrics are
the ``per_layer`` ones.  A per-layer metric a workload does not exercise
reads 0 and is named in a ``not measured`` line.

All workloads, each untraced then traced, with a summary table::

    python3 perfbench/run.py --seed 1 --seconds 20

Workloads: ``characterize`` (figure set on the serial path), ``mitigate``
(Pareto sweeps as ``hiss-sweep run`` runs them), ``serve`` (open loop
against ``hiss-serve``).  See ``perfbench/NOTES.md`` for what each metric
means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import bench
from bench import Outcome, median, peak_rss_mb, seconds_since_process_start
from probe import host_probe_line, run_probe_ms, slowdown
from sampler import LayerSampler, self_pct

WORKLOADS = ("characterize", "mitigate", "serve")
#: Layers the sampler reports; any other ``repro`` package counts as ``other``.
LAYERS = (
    "sim", "oskernel", "uarch", "iommu", "gpu", "workloads", "qos", "random",
    "core", "experiments", "search", "service", "telemetry", "obsd", "flight",
)
#: Set-ups measured per run (this process plus fresh interpreters).
SETUP_SAMPLES = 9
#: Probes taken right after each set-up, to scale it to the reference host.
SETUP_PROBES = 10
SPEC_PATH = os.path.join(bench.REPO_ROOT, "BENCHMARK.json")


def load_spec() -> Dict[str, Dict[str, dict]]:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def layer_split(document: Optional[dict]) -> Dict[str, float]:
    """``<layer>.self_pct`` for every layer, plus ``other`` and the base."""
    document = document or {"samples": 0, "counts": {}}
    counts = dict(document["counts"])
    other = sum(v for k, v in counts.items() if k not in LAYERS)
    counts = {k: v for k, v in counts.items() if k in LAYERS}
    counts["other"] = other
    folded = dict(document, counts=counts)
    split = {f"{layer}.self_pct": self_pct(folded, layer) for layer in LAYERS}
    split["other.self_pct"] = self_pct(folded, "other")
    split["sampler.samples"] = float(document["samples"])
    return split


def setup_slowdown() -> float:
    """The host's slowdown right after a set-up (see ``NOTES.md``)."""
    return slowdown([run_probe_ms() for _ in range(SETUP_PROBES)])


def child_setups(workload: str, seed: int, count: int) -> List[Tuple[float, float]]:
    """Time ``count`` fresh interpreters from spawn to the end of set-up;
    each time comes with the slowdown probed right after it."""
    samples = []
    for _ in range(count):
        begin = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=bench.REPO_ROOT,
        )
        line = child.stdout.readline()
        elapsed = time.perf_counter() - begin
        child.communicate()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed in a fresh process")
        samples.append((elapsed, setup_slowdown()))
    return samples


def setup_only(workload: str, seed: int) -> int:
    if workload == "characterize":
        import characterize

        characterize.setup(seed)
    elif workload == "mitigate":
        import mitigate

        mitigate.setup(seed)
    print("ready", flush=True)
    return 0


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    # serve samples inside the hiss-serve process (serve_host.py) instead.
    sampler = LayerSampler() if traced and workload != "serve" else None
    samples_doc = None
    if workload == "characterize":
        import characterize

        config = characterize.setup(seed)
        setups = [(seconds_since_process_start(), setup_slowdown())]
        outcome = characterize.run(seed, seconds, traced, config, sampler)
        rss_mb = peak_rss_mb()
    elif workload == "mitigate":
        import mitigate

        sweep_main = mitigate.setup(seed)
        setups = [(seconds_since_process_start(), setup_slowdown())]
        with bench.workdir("mitigate") as folder:
            outcome = mitigate.run(seed, seconds, traced, sweep_main, folder, sampler)
        rss_mb = peak_rss_mb()
    else:
        import serve

        # hiss-serve and the host-speed probes share one CPU, so the probes
        # time the CPU the server runs on (the GIL keeps it to one CPU's work).
        with bench.workdir("serve") as folder, bench.one_cpu():
            server, client, warm = serve.boot(folder, traced)
            try:
                # Set-up is mostly the warm-up simulation: scale it by the
                # host slowdown the probes saw meanwhile, like sim_ms_per_s.
                raw_setup_s = seconds_since_process_start()
                setup_s = raw_setup_s / warm["slowdown"]
                outcome = serve.run(seed, seconds, traced, server, client, warm)
                outcome.notes.append(f"unadjusted setup_s {raw_setup_s:.3f}")
                rss_mb = peak_rss_mb(server.pid)
            finally:
                code = server.stop()
            if code != 0:
                outcome.check("hiss-serve drains and exits 0", False, f"exit {code}")
            samples_doc = serve.server_samples(server) if traced else None
    if sampler is not None:
        samples_doc = sampler.document()
    if traced and samples_doc:
        outcome.notes.append(
            f"sampler: {samples_doc['samples']:.0f} samples in the program, "
            f"{samples_doc['bench_samples']:.0f} in the benchmark's own code "
            f"(probes, spans; left out of the split)"
        )
    if workload != "serve":
        if not traced:
            setups += child_setups(workload, seed, SETUP_SAMPLES - 1)
        # Host-speed-adjusted like the timed phase; the raw times are noted.
        setup_s = median([elapsed / slow for elapsed, slow in setups])
        outcome.notes.append(
            f"setup_s median of {len(setups)} set-ups, unadjusted "
            + ", ".join(f"{elapsed:.3f}" for elapsed, _slow in setups) + " s; "
            "slowdowns " + ", ".join(f"{slow:.2f}" for _elapsed, slow in setups)
        )
    outcome.metrics["setup_s"] = setup_s
    outcome.metrics["rss_mb"] = rss_mb
    probes = outcome.samples["probe_ms"]
    outcome.notes.append(host_probe_line(probes))
    if traced:
        outcome.metrics.update(layer_split(samples_doc))
        outcome.metrics["host.probe_ms"] = median(probes)
    return outcome


def emit(workload: str, outcome: Outcome, traced: bool) -> bool:
    """Print the run's report; the last line is the result object."""
    spec = load_spec()
    wanted = spec["per_layer" if traced else "end_to_end"]
    e2e = {name: outcome.metrics[name] for name in spec["end_to_end"]
           if name in outcome.metrics}
    for note in outcome.notes:
        print(f"{workload}: {note}")
    for name, passed, detail in outcome.checks:
        print(f"{workload}: check {'PASS' if passed else 'FAIL'} {name} ({detail})")
    missing = [name for name in wanted if name not in outcome.metrics]
    if traced and missing:
        print(f"{workload}: not measured on this workload (reported as 0): "
              + ", ".join(missing))
    elif missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    print("E2E " + json.dumps(e2e, sort_keys=True))
    correct = outcome.failed == 0 and all(passed for _n, passed, _d in outcome.checks)
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": m["unit"]}
            for name, m in wanted.items()
        },
    }
    print(json.dumps(result), flush=True)
    return correct


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, then one summary table."""
    spec = load_spec()
    rows = []
    ok = True
    for workload in WORKLOADS:
        outputs = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", f"{seconds:g}",
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=bench.REPO_ROOT,
            )
            lines = done.stdout.strip().splitlines()
            sys.stdout.write(done.stdout)
            ok = ok and done.returncode == 0
            e2e = [json.loads(l[4:]) for l in lines if l.startswith("E2E ")]
            if not e2e:  # crashed before reporting
                print(f"{workload} --trace {trace}: exit {done.returncode}")
                break
            outputs[trace] = (json.loads(lines[-1]), e2e[0])
        if len(outputs) == 2:
            rows.append((workload, outputs))
    print()
    print(f"{'workload':<13}{'metric':<16}{'value':>14} {'unit':<6}{'better':<8}"
          f"{'traced/untraced':>16}")
    for workload, outputs in rows:
        result, _e2e = outputs[0]
        traced_e2e = outputs[1][1]
        for name, entry in spec["end_to_end"].items():
            value = result["metrics"][name]["value"]
            ratio = traced_e2e.get(name, 0.0) / value if value else 0.0
            print(f"{workload:<13}{name:<16}{value:>14.4f} {entry['unit']:<6}"
                  f"{entry['better']:<8}{ratio:>16.3f}")
        print(f"{workload:<13}attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        bench.require_program()
        load_spec()
    except (bench.ProgramMissing, OSError, ValueError) as error:
        print(f"perfbench: cannot run: {error}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if emit(args.workload, outcome, bool(args.trace)) else 1


if __name__ == "__main__":
    sys.exit(main())
