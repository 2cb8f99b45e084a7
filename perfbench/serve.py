"""``serve``: an open loop of cached figure jobs against a ``hiss-serve`` process.

Set-up boots ``hiss-serve`` with its default admission settings (``--jobs
1``, QoS threshold 0.75) plus production observability (``--log-json``,
``--slo default``, ``--postmortem-dir``, a fresh ``--cache-dir``) and
submits one warm-up job over the whole figure menu, which simulates every
run the timed phase will ask for.

The timed phase sends ``RATE`` jobs per second for ``--seconds`` from one
thread, one connection at a time, never polling until the schedule ends.
Each job is an ordered subset of the menu drawn from ``--seed``; a
``REPEAT_SHARE`` of them repeat an earlier spec (the JobStore dedupe path),
the rest are first-time combinations (queue -> replay -> render).  The mix
is synthetic: no recorded ``hiss-serve`` traffic exists to derive it from
(see ``NOTES.md`` for why each value was chosen).  A 429
is honoured as ``hiss-client`` does: the same spec is re-sent with the
same trace id once its ``Retry-After`` has passed.  A job's latency runs
from its first due time to the server's ``finished_s``, or to the POST
reply for a deduplicated job that had already finished.

Every job must end ``done`` and serve the experiments of its spec, in
order, each exactly the warm-up job's result document (``elapsed_s``, a
wall-clock stamp, zeroed).
"""

from __future__ import annotations

import heapq
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from bench import (
    BENCH_DIR,
    HORIZON_MS,
    REPO_ROOT,
    Outcome,
    cpu_seconds,
    cpu_ticks,
    median,
    program_env,
    quantile,
    steal_share,
    tail,
)
from probe import run_probe_ms, slowdown

#: The figure menu; the warm-up job submits all of it (fig3a is 48 runs).
MENU = ("fig3a", "fig3b", "fig4", "fig5", "ipi")
#: Offered load of the open loop, jobs per second.
RATE = 10.0
#: Share of timed jobs that repeat an earlier spec.  An assumption, not a
#: measurement: it leaves 50 samples on the dedupe path and 150 on the
#: render path in a 20 s run, enough for a median of each.
REPEAT_SHARE = 0.25
#: How long set-up waits for the server to listen and the warm-up to finish.
BOOT_TIMEOUT_S = 60.0
WARMUP_TIMEOUT_S = 120.0
#: How long the collection phase waits for the last job to finish.
DRAIN_TIMEOUT_S = 60.0
#: The generator samples the host's speed this long before each send.
IDLE_PROBE_S = 0.005


def job_specs(seed: int, count: int) -> List[Tuple[str, ...]]:
    """``count`` job specs: repeats of earlier specs mixed with new ones.

    A new spec is an ordered subset of the menu, its length uniform over 1
    to ``len(MENU)``.  An assumption, not a measurement: it spans the
    single-figure jobs the repository's own clients submit up to the whole
    menu, and five figures have 325 ordered subsets, room for the 150 new
    specs of a 20 s run.
    """
    rng = random.Random(seed)
    warmup = tuple(MENU)
    sent = [warmup]
    used = {warmup}
    space = sum(math.perm(len(MENU), k) for k in range(1, len(MENU) + 1))
    repeats = set(rng.sample(range(count), round(REPEAT_SHARE * count)))
    specs = []
    for index in range(count):
        if index in repeats or len(used) == space:
            spec = rng.choice(sent)
        else:
            while True:
                spec = tuple(rng.sample(MENU, rng.randint(1, len(MENU))))
                if spec not in used:
                    break
            used.add(spec)
            sent.append(spec)
        specs.append(spec)
    return specs


def canonical_result(document: Dict[str, Any]) -> str:
    """One experiment's result document, its wall-clock stamp zeroed."""
    return json.dumps(dict(document, elapsed_s=0.0), sort_keys=True)


class Server:
    """A ``hiss-serve`` child process (optionally under the layer sampler)."""

    def __init__(self, workdir: str, traced: bool):
        self.ops_log = os.path.join(workdir, "ops.jsonl")
        self.samples_path = os.path.join(workdir, "server-samples.json")
        args = [
            "--port", "0",
            "--cache-dir", os.path.join(workdir, "cache"),
            "--log-json", self.ops_log,
            "--slo", "default",
            "--postmortem-dir", os.path.join(workdir, "postmortems"),
        ]
        if traced:
            command = [sys.executable, os.path.join(BENCH_DIR, "serve_host.py"),
                       self.samples_path, *args]
        else:
            command = [sys.executable, "-m", "repro.service.daemon", *args]
        self.log = open(os.path.join(workdir, "server.log"), "w")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=program_env(), cwd=REPO_ROOT,
        )
        self.url = self._await_listening()

    def _await_listening(self) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        pipe = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([pipe], [], [], 0.5)
            if ready:
                line = pipe.readline()
                if not line:
                    break
                if "listening on " in line:
                    return line.split("listening on ", 1)[1].split()[0]
        raise RuntimeError("hiss-serve did not start listening")

    @property
    def pid(self) -> int:
        return self.process.pid

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def stop(self) -> int:
        """SIGTERM (the daemon drains), wait, and reap."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self.log.close()
        return self.process.returncode


def _await_done(client, job_id: str, timeout_s: float,
                probes: Optional[List[float]] = None) -> Dict[str, Any]:
    deadline = time.monotonic() + timeout_s
    while True:
        if probes is not None:
            probes.append(run_probe_ms())
        doc = client.status(job_id)
        if doc["state"] in ("done", "failed", "cancelled") or time.monotonic() > deadline:
            return doc
        time.sleep(0.05)


def _spans_by_id(trace: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {span["span_id"]: span for span in trace.get("spans", [])}


def boot(workdir: str, traced: bool):
    """Set-up: server up, warm-up job done, reference results in hand."""
    from repro.service.client import ServiceClient

    server = Server(workdir, traced)
    try:
        client = ServiceClient(server.url)
        cpu = min(os.sched_getaffinity(0))
        ticks = cpu_ticks(cpu)
        body = client.submit(list(MENU), quick=True, horizon_ms=HORIZON_MS)
        probes: List[float] = []
        warmup = _await_done(client, body["job"]["id"], WARMUP_TIMEOUT_S, probes)
        warm_slowdown = slowdown(probes) / (1.0 - steal_share(cpu, ticks))
        if warmup["state"] != "done":
            raise RuntimeError(f"warm-up job ended {warmup['state']}: {warmup.get('error')}")
        reference = {
            doc["experiment_id"]: canonical_result(doc)
            for doc in client.result(warmup["id"])
        }
        warm_trace = client.trace(warmup["id"])
    except BaseException:
        server.stop()
        raise
    return server, client, {"job": warmup, "reference": reference,
                            "trace": warm_trace, "slowdown": warm_slowdown,
                            "probes": probes}


def run(seed: int, seconds: float, traced: bool, server: "Server", client,
        warm: Dict[str, Any]) -> Outcome:
    from repro.service.client import ServiceError, ServiceRejected

    outcome = Outcome()
    count = max(11, round(RATE * seconds))
    specs = job_specs(seed, count)
    trace_ids: Dict[int, str] = {}
    accepted: Dict[int, Tuple[Dict[str, Any], float, float]] = {}  # body, sent, replied
    errors: Dict[int, str] = {}
    refusals: List[float] = []
    lateness: List[float] = []
    rtts: List[float] = []
    probes: List[float] = []

    cpu_begin = cpu_seconds(server.pid)
    ops_begin = os.path.getsize(server.ops_log)
    cpu = min(os.sched_getaffinity(0))  # the CPU the run is pinned to
    ticks = cpu_ticks(cpu)
    if traced:
        server.signal(signal.SIGUSR1)  # the sampler counts the timed phase only
    start = time.time() + 0.05
    due_at = [start + index / RATE for index in range(count)]
    schedule = [(due, index) for index, due in enumerate(due_at)]
    heapq.heapify(schedule)
    while schedule:
        due, index = heapq.heappop(schedule)
        wait = due - time.time()
        if wait > IDLE_PROBE_S:
            # Sample the host's speed just before the send, when the
            # server has long finished the previous job.
            time.sleep(wait - IDLE_PROBE_S)
            probes.append(run_probe_ms())
        wait = due - time.time()
        if wait > 0:
            time.sleep(wait)
        sent = time.time()
        lateness.append(sent - due)
        try:
            body = client.submit(
                list(specs[index]), quick=True, horizon_ms=HORIZON_MS,
                trace_id=trace_ids.get(index),
            )
            accepted[index] = (body, sent, time.time())
        except ServiceRejected as rejection:
            replied = time.time()
            trace_ids[index] = rejection.trace_id or trace_ids.get(index)
            refusals.append(rejection.retry_after_s)
            heapq.heappush(schedule, (replied + rejection.retry_after_s, index))
        except (ServiceError, OSError) as error:  # dropped connection, 5xx, ...
            errors[index] = f"{type(error).__name__}: {error}"
        rtts.append(time.time() - sent)

    # The schedule has ended: now collect what the server did.
    slow = (slowdown(probes) if probes else 1.0) / (1.0 - steal_share(cpu, ticks))
    final: Dict[str, Dict[str, Any]] = {}
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    for body, _sent, _replied in accepted.values():
        job_id = body["job"]["id"]
        if job_id not in final:
            final[job_id] = _await_done(client, job_id, max(0.0, deadline - time.monotonic()))
    cpu_s = cpu_seconds(server.pid) - cpu_begin
    ops_bytes = os.path.getsize(server.ops_log) - ops_begin
    if traced:
        server.signal(signal.SIGUSR2)

    spec_of = {body["job"]["id"]: specs[index]
               for index, (body, _sent, _replied) in accepted.items()}
    results_ok: Dict[str, bool] = {}
    for job_id, doc in final.items():
        if doc["state"] != "done":
            results_ok[job_id] = False
            continue
        served = client.result(job_id)
        results_ok[job_id] = tuple(
            item["experiment_id"] for item in served
        ) == spec_of[job_id] and all(
            canonical_result(item) == warm["reference"].get(item["experiment_id"])
            for item in served
        )

    latencies: List[float] = []
    raw_latencies: List[float] = []
    finished_at: List[float] = []
    deduped: List[float] = []
    new_jobs: List[float] = []
    for index in range(count):
        outcome.attempted += 1
        if index not in accepted:
            outcome.failed += 1
            outcome.notes.append(f"job {index}: {errors.get(index, 'never accepted')}")
            continue
        body, sent, replied = accepted[index]
        job = final[body["job"]["id"]]
        if job["state"] != "done" or not results_ok[job["id"]]:
            outcome.failed += 1
            outcome.notes.append(f"job {index} ({job['id']}): state {job['state']}, "
                                 f"result match {results_ok.get(job['id'])}")
            continue
        done_on_reply = body.get("deduplicated") and body["job"].get("state") == "done"
        end = replied if done_on_reply else job["finished_s"]
        # Back-off (due -> the accepted send) is sleeping, not host work;
        # only the serving part is host-speed-adjusted.
        latency_ms = 1000.0 * ((sent - due_at[index]) + (end - sent) / slow)
        outcome.samples.setdefault("job_ms", {})[index] = latency_ms
        latencies.append(latency_ms)
        raw_latencies.append(1000.0 * (end - due_at[index]))
        finished_at.append(end)
        (deduped if body.get("deduplicated") else new_jobs).append(latency_ms)

    states_ok = all(doc["state"] == "done" for doc in final.values())
    outcome.verdict("every job ends in state done", states_ok and not errors,
                    f"{len(final)} distinct jobs, {len(errors)} submission errors")
    outcome.verdict("every served result equals the warm-up result",
                    all(results_ok.values()),
                    f"{sum(results_ok.values())} of {len(results_ok)} jobs match")

    warm_spans = _spans_by_id(warm["trace"])
    warm_batch_s = warm_spans["batch"]["duration_s"]
    job_tail = tail(latencies) if len(latencies) > 10 else None
    outcome.metrics.update(
        {
            "sim_ms_per_s": (warm["job"]["runs_executed"] * HORIZON_MS
                             * warm["slowdown"] / warm_batch_s),
            "evals_per_s": len(latencies) / (max(finished_at) - start) if latencies else 0.0,
            "job_p50_ms": quantile(latencies, 50.0),
            "job_tail_ms": job_tail.value if job_tail else 0.0,
        }
    )
    outcome.notes += [
        f"{count} jobs at {RATE:g}/s: {len(deduped)} deduplicated "
        f"({100.0 * len(deduped) / count:.1f}%), {len(new_jobs)} new, "
        f"{len(refusals)} refusals (429); job_tail_ms "
        + (job_tail.describe("ms") if job_tail else "n/a")
        + "; sim_ms_per_s is the warm-up batch (set-up), the only simulation",
        f"host slowdown {warm['slowdown']:.3f} during the warm-up, {slow:.3f} in "
        f"the timed phase; unadjusted sim_ms_per_s "
        f"{warm['job']['runs_executed'] * HORIZON_MS / warm_batch_s:.3f}, "
        f"job_p50_ms {quantile(raw_latencies, 50.0):.3f}",
    ]
    outcome.samples["probe_ms"] = warm["probes"] + probes
    if traced:
        metrics_doc = client.metrics()
        traces = [
            client.trace(job_id) for job_id in final
            if job_id != warm["job"]["id"]
        ]
        outcome.metrics.update(layer_metrics(
            warm, traces, metrics_doc, lateness, rtts, refusals, deduped,
            new_jobs, count, cpu_s, ops_bytes,
        ))
        outcome.metrics["host.slowdown"] = slow
    return outcome


def _stage_p50_ms(traces: List[Dict[str, Any]], span_id: str) -> float:
    return median([
        1000.0 * spans[span_id]["duration_s"]
        for spans in map(_spans_by_id, traces)
        if span_id in spans
    ])


def layer_metrics(warm, traces, metrics_doc, lateness, rtts, refusals, deduped,
                  new_jobs, count, cpu_s, ops_bytes) -> Dict[str, float]:
    warm_spans = _spans_by_id(warm["trace"])
    sim_runs = [s for s in warm["trace"]["spans"] if s["span_id"].startswith("sim-")]
    ssr = [s for s in sim_runs if "!nossr" not in s["name"] and "xnogpu" not in s["name"]]
    nossr = [s for s in sim_runs if s not in ssr]
    predicted = metrics_doc["gauges"].get("service.qos.predicted_core_s", 0.0)
    return {
        "core.simulate_run_ssr_p50_ms": median([1000.0 * s["duration_s"] for s in ssr]),
        "core.simulate_run_nossr_p50_ms": median([1000.0 * s["duration_s"] for s in nossr]),
        "sim.runs": float(len(sim_runs)),
        "service.submit_p50_ms": _stage_p50_ms(traces, "submit"),
        "service.queue_p50_ms": _stage_p50_ms(traces, "queue"),
        "service.batch_p50_ms": _stage_p50_ms(traces, "batch"),
        "service.render_p50_ms": _stage_p50_ms(traces, "render"),
        "service.post_rtt_p50_ms": 1000.0 * median(rtts),
        "service.dedupe_p50_ms": median(deduped),
        "service.new_job_p50_ms": median(new_jobs),
        "service.dedupe_share_pct": 100.0 * len(deduped) / count,
        "service.cpu_ms_per_job": 1000.0 * cpu_s / count,
        "obs.ops_log_bytes_per_job": ops_bytes / count,
        "service.refused": float(len(refusals)),
        "service.retry_wait_p50_s": median(refusals),
        "cost_model.predicted_over_actual": predicted / warm_spans["batch"]["duration_s"],
        "gen.late_p50_ms": 1000.0 * median(lateness),
        "gen.late_max_ms": 1000.0 * max(lateness),
    }


def server_samples(server: "Server") -> Optional[Dict[str, Any]]:
    """The layer sampler's timed-phase document the traced server wrote."""
    try:
        with open(server.samples_path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
