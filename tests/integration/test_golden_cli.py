"""Golden outputs of the report and document CLIs, pinned across builds.

Every case runs one console entry point in-process through its
``main([...])`` over the fixed inputs in ``data/golden_cli/`` and compares
stdout, stderr, the exit status and every file the command writes with
``data/golden_cli/expected.json``: HTML pages and ``.folded`` files by
SHA-256 and length, text verbatim.  Other tests check that two renders in
one build agree; this one checks that the bytes stay where they were from
one build to the next.  It also pins the decimated state of the two
diagnostics rings, which the postmortem and SLO pages are drawn from.

The inputs are small captures (a one-run 1 ms profile, the obsd tests'
ops-log capture, two job trace documents, a postmortem bundle whose ring has
decimated, a ~20-event Chrome trace, a budget-8 sweep journal and its
archive).  A change that means to move an output regenerates the
expectations, and says why, with::

    PYTHONPATH=src python tests/integration/test_golden_cli.py

``--inputs`` rebuilds the input files too (that re-simulates, so only do
it when an input format changes).
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

import pytest

from repro.obsd import FlightRing
from repro.obsd.cli import main as slo_main
from repro.obsd.rollup import RollupStore
from repro.profiling.cli import main as report_main
from repro.search.cli import main as sweep_main
from repro.telemetry import Histogram
from repro.telemetry.cli import main as trace_main

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_cli")
EXPECTED = os.path.join(DATA, "expected.json")
#: The SLO cases replay the ops-log capture the obsd tests already use.
OPS_CAPTURE = os.path.join(
    os.path.dirname(__file__), "..", "obsd", "data", "ops_capture.jsonl"
)

PROGRAMS = {
    "hiss-report": report_main,
    "hiss-slo": slo_main,
    "hiss-trace": trace_main,
    "hiss-sweep": sweep_main,
}

#: (case id, program, argv, files the command writes).  Paths are
#: relative to a scratch copy of the inputs so no output names a tmp dir.
CASES = [
    ("report-render", "hiss-report",
     ["render", "profile.json", "-o", "report.html", "--collapsed", "flame.folded"],
     ["report.html", "flame.folded"]),
    ("report-summary", "hiss-report", ["summary", "profile.json"], []),
    ("report-validate", "hiss-report", ["validate", "profile.json"], []),
    ("report-render-not-a-profile", "hiss-report",
     ["render", "not_a_document.json", "-o", "x.html"], []),
    ("report-missing", "hiss-report", ["summary", "missing.json"], []),
    ("report-invalid-json", "hiss-report", ["summary", "invalid.json"], []),
    ("slo-evaluate-html", "hiss-slo",
     ["evaluate", "--ops", "ops_capture.jsonl", "--slo", "slos.json", "-o", "slo.html"],
     ["slo.html"]),
    ("slo-evaluate-json", "hiss-slo",
     ["evaluate", "--ops", "ops_capture.jsonl", "--slo", "slos.json", "--json"], []),
    ("slo-diff-html", "hiss-slo",
     ["diff", "job_a.json", "job_b.json", "-o", "diff.html"], ["diff.html"]),
    ("slo-diff-json", "hiss-slo", ["diff", "job_a.json", "job_b.json", "--json"], []),
    ("slo-validate", "hiss-slo", ["validate", "slos.json"], []),
    ("slo-default-spec", "hiss-slo", ["default-spec"], []),
    ("slo-missing", "hiss-slo", ["validate", "missing.json"], []),
    ("slo-invalid-json", "hiss-slo", ["diff", "invalid.json", "job_b.json"], []),
    ("slo-diff-not-a-trace", "hiss-slo", ["diff", "not_a_document.json", "job_b.json"], []),
    ("postmortem-render", "hiss-slo",
     ["postmortem", "render", "pm/pm-000000-manual.json", "-o", "postmortem.html"],
     ["postmortem.html"]),
    ("postmortem-summary", "hiss-slo",
     ["postmortem", "summary", "pm/pm-000000-manual.json"], []),
    ("postmortem-validate", "hiss-slo",
     ["postmortem", "validate", "pm/pm-000000-manual.json", "not_a_document.json"], []),
    ("postmortem-list", "hiss-slo", ["postmortem", "list", "pm"], []),
    ("postmortem-render-not-a-bundle", "hiss-slo",
     ["postmortem", "render", "not_a_document.json", "-o", "x.html"], []),
    ("postmortem-missing", "hiss-slo", ["postmortem", "summary", "missing.json"], []),
    ("postmortem-invalid-json", "hiss-slo",
     ["postmortem", "summary", "invalid.json"], []),
    ("trace-validate", "hiss-trace", ["validate", "chrome.json"], []),
    ("trace-validate-spans", "hiss-trace", ["validate", "--spans", "job_a.json"], []),
    ("trace-summary", "hiss-trace", ["summary", "chrome.json"], []),
    ("trace-timeline", "hiss-trace",
     ["timeline", "chrome.json", "--track", "core 0", "--limit", "0"], []),
    ("trace-missing", "hiss-trace", ["summary", "missing.json"], []),
    ("trace-invalid-json", "hiss-trace", ["summary", "invalid.json"], []),
    ("sweep-report-html", "hiss-sweep",
     ["report", "--state", "sweep.jsonl", "--html", "frontier.html"], ["frontier.html"]),
    ("sweep-validate", "hiss-sweep", ["validate", "--state", "sweep.jsonl"], []),
]


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_case(workdir: str, program: str, argv, writes) -> dict:
    """Run one CLI in ``workdir``; return what it printed, exited and wrote."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = PROGRAMS[program](list(argv))
            except SystemExit as exit_:
                status = exit_.code
        files = {}
        for name in writes:
            with open(name, "rb") as handle:
                files[name] = _digest(handle.read())
    finally:
        os.chdir(cwd)
    return {
        "exit": status,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "files": files,
    }


def rollup_state() -> dict:
    """A 16-bucket store after four decimations, as the SLO page sees it."""
    store = RollupStore(interval_s=1.0, capacity=16)
    latency = Histogram(low=1e-3, high=1e4, growth=1.5)
    for step in range(1, 41):
        latency.record(0.01 * step)
        store.sample(
            float(step),
            counters={"service.jobs.completed": 2 * step, "service.jobs.failed": step // 7},
            gauges={"service.queue.depth": float(step % 5)},
            histograms={"service.job.e2e_s": latency},
        )
    return store.as_dict()


def ring_state() -> dict:
    """A 16-entry flight ring after five decimations."""
    ring = FlightRing(16)
    for step in range(50):
        ring.append(100.0 + 0.5 * step, f"kind.{step % 3}", {"step": step})
    return ring.as_dict()


def _canonical(document) -> bytes:
    return json.dumps(document, sort_keys=True).encode("utf-8")


def record_all(workdir: str) -> dict:
    return {
        "cases": {
            case_id: run_case(workdir, program, argv, writes)
            for case_id, program, argv, writes in CASES
        },
        "rings": {
            "rollup": _digest(_canonical(rollup_state())),
            "flight": _digest(_canonical(ring_state())),
        },
    }


@pytest.fixture(scope="module")
def golden():
    with open(EXPECTED, "r", encoding="utf-8") as handle:
        return json.load(handle)


def copy_inputs(target: str) -> str:
    shutil.copytree(DATA, target, ignore=shutil.ignore_patterns("expected.json"))
    shutil.copy(OPS_CAPTURE, target)
    return target


@pytest.fixture()
def workdir(tmp_path):
    return copy_inputs(str(tmp_path / "golden"))


def test_every_case_is_pinned(golden):
    assert sorted(golden["cases"]) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize(
    "case_id,program,argv,writes", CASES, ids=[case[0] for case in CASES]
)
def test_cli_output_matches_golden(golden, workdir, case_id, program, argv, writes):
    assert run_case(workdir, program, argv, writes) == golden["cases"][case_id]


def test_rollup_decimation_matches_golden(golden):
    state = rollup_state()
    assert state["decimations"] >= 2
    assert _digest(_canonical(state)) == golden["rings"]["rollup"]


def test_flight_ring_decimation_matches_golden(golden):
    state = ring_state()
    assert state["decimations"] >= 2
    assert sum(entry["weight"] for entry in state["entries"]) == state["appended"]
    assert _digest(_canonical(state)) == golden["rings"]["flight"]


# ----------------------------------------------------------------------
# Regeneration (not run by pytest)
# ----------------------------------------------------------------------
def _build_inputs(directory: str) -> None:  # pragma: no cover - manual tool
    """Write the input captures into ``directory`` (re-simulates)."""
    import tempfile

    from repro.config import SystemConfig
    from repro.core import System
    from repro.obsd import (
        FlightRecorder,
        PostmortemStore,
        blame_top_k,
        default_triggers,
        validate_postmortem,
    )
    from repro.obsd.replay import replay_ops_log
    from repro.obsd.slo import SloSpec, evaluate_slos, slo_document
    from repro.profiling import ProfileCollector, Profiler
    from repro.telemetry import Tracer, write_chrome_trace
    from repro.workloads import gpu_app, parsec

    def path(name):
        return os.path.join(directory, name)

    profiler = Profiler()
    system = System(SystemConfig(), profiler=profiler)
    system.add_cpu_app(parsec("blackscholes"))
    system.add_gpu_workload(gpu_app("ubench"))
    system.run(1_000_000)
    run_doc = profiler.take_document()
    collector = ProfileCollector()
    collector.add(run_doc)
    with open(path("profile.json"), "w", encoding="utf-8") as handle:
        json.dump(collector.bundle(meta={"source": "golden"}), handle, sort_keys=True)

    specs = [
        SloSpec(name="e2e-tight", kind="latency", metric="e2e_s", percentile=99,
                threshold_s=0.3, fast_window_s=5, slow_window_s=10),
        SloSpec(name="e2e-loose", kind="latency", metric="e2e_s", percentile=99,
                threshold_s=60.0, fast_window_s=5, slow_window_s=10),
    ]
    with open(path("slos.json"), "w", encoding="utf-8") as handle:
        json.dump(slo_document(specs), handle, indent=2)

    # Binary fractions throughout, so every stage sum is exact whichever
    # float summation the interpreter uses.
    tick = 1.0 / 64
    traces = []
    for name, job_id, queue_s in (("job_a.json", "job-a", 4 * tick),
                                  ("job_b.json", "job-b", 2.0 + 4 * tick)):
        doc = {
            "job_id": job_id,
            "trace_id": f"trace-{job_id}",
            "state": "done",
            "spans": [
                {"span_id": "root", "name": "service.job",
                 "start_s": 0.0, "end_s": 1.0 + queue_s},
                {"span_id": "submit", "name": "service.submit",
                 "start_s": 0.0, "end_s": tick},
                {"span_id": "queue", "name": "service.queue",
                 "start_s": tick, "end_s": tick + queue_s},
                {"span_id": "batch", "name": "service.batch",
                 "start_s": tick + queue_s, "end_s": 1.0 - tick + queue_s},
                {"span_id": "sim-0", "name": "sim.run-0",
                 "start_s": tick + queue_s, "end_s": 1.0 - 8 * tick + queue_s},
                {"span_id": "render", "name": "service.render",
                 "start_s": 1.0 - tick + queue_s, "end_s": 1.0 + queue_s},
            ],
        }
        traces.append(doc)
        with open(path(name), "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

    with tempfile.TemporaryDirectory() as scratch:
        store = PostmortemStore(os.path.join(scratch, "pm"), keep=5)
        recorder = FlightRecorder(store, triggers=default_triggers(), ring_capacity=16)
        for step in range(40):
            recorder.observe({"ts": 100.0 + step, "event": "job.started",
                              "job": f"j{step}"})
        recorder.note_run(
            {"run": "blackscholesxubench@1ms", "worker_pid": 4242,
             "wall_start_s": 130.0, "wall_end_s": 139.5},
            [{"ts": step} for step in range(30)],
            run_doc,
        )
        bundle = recorder.trigger_manual("golden capture", at_s=140.0)
    # A recorder without a service captures only its ring; fill in the
    # sections a live daemon would add so the page draws every table.
    bundle["jobs"] = traces
    bundle["blame"]["rows"] = blame_top_k([run_doc])
    bundle["metrics"] = {"counters": {"service.jobs.completed": 2, "service.jobs.failed": 0}}
    bundle["alerts"] = evaluate_slos(specs, replay_ops_log(OPS_CAPTURE).store)
    assert validate_postmortem(bundle) == []
    os.makedirs(path("pm"), exist_ok=True)
    with open(path(os.path.join("pm", bundle["id"] + ".json")), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(bundle, sort_keys=True, default=str))

    tracer = Tracer(capacity=20)
    traced = System(SystemConfig(), tracer=tracer)
    traced.add_cpu_app(parsec("blackscholes"))
    traced.add_gpu_workload(gpu_app("ubench"))
    traced.run(500_000)
    write_chrome_trace(tracer, path("chrome.json"))

    with tempfile.TemporaryDirectory() as scratch:
        run_case(scratch, "hiss-sweep",
                 ["run", "--state", "sweep.jsonl", "--budget", "8", "--round-size", "4",
                  "--horizon-ms", "1", "--seed", "0"], [])
        for name in ("sweep.jsonl", "sweep.jsonl.archive.json"):
            shutil.copy(os.path.join(scratch, name), path(name))

    with open(path("invalid.json"), "w", encoding="utf-8") as handle:
        handle.write("{not json\n")
    with open(path("not_a_document.json"), "w", encoding="utf-8") as handle:
        handle.write('{"schema": "nope"}\n')


if __name__ == "__main__":  # pragma: no cover - manual tool
    import tempfile

    if "--inputs" in sys.argv[1:]:
        os.makedirs(DATA, exist_ok=True)
        _build_inputs(DATA)
    with tempfile.TemporaryDirectory() as scratch:
        recorded = record_all(copy_inputs(os.path.join(scratch, "golden")))
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED} ({len(recorded['cases'])} cases)")
