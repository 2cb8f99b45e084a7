"""Golden event streams: what a served job and ``--trace`` keep, pinned.

``data/golden_traces.json`` holds, per case, the SHA-256 of a canonical
rendering plus its run, event and drop counts:

* ``served_sim`` — the ``sim`` section of the served trace of one
  ``fig4 ipi --quick --horizon-ms 5`` job: 10 runs, three of them over the
  per-run event budget (their first events are kept, the rest counted as
  dropped).  Wall times, worker pids, trace ids and span ids differ from
  serve to serve and are stripped; runs are sorted by label, so the one
  digest must hold at ``jobs=1`` (in-process) and ``jobs=2`` (pool).
* ``cli_trace`` — the ``traceEvents`` of ``hiss experiments fig4
  --quick --horizon-ms 2 --trace`` at ``--jobs 1``, hashed as each tid's
  event sequence with tids in ascending order.  Tids come from sorted
  track names, so they are fixed.  The interleaving of runs in the file
  follows the order the runs were executed in; an unobserved cost model
  breaks longest-first ties on the fingerprint-free ``run_key_digest``,
  so a source edit does not move it, but the cost model's observations
  do.  Its timestamps are simulated time; it holds no wall-clock field.

A change that only makes tracing cheaper must reproduce every byte.  A
change that means to move an event regenerates the data, and says why,
with::

    PYTHONPATH=src python tests/integration/test_golden_traces.py
"""

import hashlib
import json
import os
import tempfile

import pytest

from repro.core import clear_cache, set_disk_cache

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_traces.json")

#: Per-run fields of a served ``sim`` entry that vary between serves.
_UNSTABLE_RUN_FIELDS = (
    "trace_id", "parent_span_id", "wall_start_s", "wall_end_s", "worker_pid",
)


def _digest(document) -> str:
    """SHA-256 of ``document`` as JSON in its own key order, which is the
    order the bytes are served and written in."""
    rendered = json.dumps(document, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def produce_served_sim(jobs: int) -> dict:
    """Serve one ``fig4 ipi`` job from cold caches; digest its ``sim`` section."""
    from repro.service import HissService, ServiceClient

    clear_cache()
    set_disk_cache(None)
    try:
        with HissService(port=0, jobs=jobs, qos_threshold=10.0) as service:
            client = ServiceClient(service.url, timeout_s=30)
            body = client.submit(["fig4", "ipi"], quick=True, horizon_ms=5.0)
            job = client.wait(body["job"]["id"], timeout_s=300)
            assert job["state"] == "done", job
            sim = client.trace(job["id"])["sim"]
    finally:
        clear_cache()
    runs = sorted(
        (
            {k: v for k, v in run.items() if k not in _UNSTABLE_RUN_FIELDS}
            for run in sim
        ),
        key=lambda run: run["run"],
    )
    return {
        "sha256": _digest(runs),
        "runs": len(runs),
        "events": sum(len(run["events"]) for run in runs),
        "dropped": sum(run["events_dropped"] for run in runs),
        "runs_with_drops": sum(1 for run in runs if run["events_dropped"]),
    }


def produce_cli_trace() -> dict:
    """``hiss experiments fig4 --quick --horizon-ms 2 --trace`` at ``--jobs 1``."""
    from repro.experiments.run_all import main

    clear_cache()  # a cached run is not re-simulated, so not traced
    set_disk_cache(None)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "trace.json")
            argv = ["fig4", "--quick", "--horizon-ms", "2", "--trace", path]
            assert main(argv + ["--jobs", "1"]) == 0
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
    finally:
        clear_cache()
    events = doc["traceEvents"]
    by_tid = {}
    for event in events:
        by_tid.setdefault(event["tid"], []).append(event)
    return {
        "sha256": _digest([[tid, by_tid[tid]] for tid in sorted(by_tid)]),
        "events": len(events),
        "dropped": doc["otherData"]["dropped_events"],
    }


GOLDEN = {}
if os.path.exists(DATA):  # absent only until the first regeneration
    with open(DATA, "r", encoding="utf-8") as _handle:
        GOLDEN = json.load(_handle)


def test_golden_cases_reach_the_budget():
    """The served case has runs over the per-run budget, so the cut is pinned."""
    served = GOLDEN["served_sim"]
    assert served["runs"] == 10
    assert served["runs_with_drops"] == 3 and served["dropped"] > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_served_sim_section_matches_golden(jobs):
    assert produce_served_sim(jobs) == GOLDEN["served_sim"]


def test_cli_trace_matches_golden():
    assert produce_cli_trace() == GOLDEN["cli_trace"]


if __name__ == "__main__":  # pragma: no cover - manual tool
    serial, pooled = produce_served_sim(1), produce_served_sim(2)
    assert serial == pooled, (serial, pooled)
    recorded = {"served_sim": serial, "cli_trace": produce_cli_trace()}
    with open(DATA, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DATA}: {json.dumps(recorded)}")
