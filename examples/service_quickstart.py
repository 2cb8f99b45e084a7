#!/usr/bin/env python3
"""Service quickstart: run the simulation daemon in-process and talk to it.

Boots a :class:`repro.service.HissService` on an ephemeral port, submits a
small grid of jobs over real HTTP, and watches the daemon's queue and QoS
metrics while the batch drains — then resubmits one job to show the
warm-cache path serving with zero simulations.

Usage::

    python examples/service_quickstart.py [horizon_ms]
"""

import sys
import time

from repro.service import HissService, ServiceClient


def main() -> int:
    horizon_ms = float(sys.argv[1]) if len(sys.argv) > 1 else 2.0

    print("Starting hiss serve in-process (ephemeral port)...")
    service = HissService(port=0, jobs=1, queue_limit=8, qos_threshold=0.9)
    service.start()
    client = ServiceClient(service.url)
    print(f"serving at {service.url}: {client.health()}")

    # A small grid: the CC6 figure at two horizons, plus the SSR cost table.
    grid = [
        {"experiments": ["fig4"], "quick": True, "horizon_ms": horizon_ms},
        {"experiments": ["fig4"], "quick": True, "horizon_ms": 2 * horizon_ms},
        {"experiments": ["table1"], "quick": False, "horizon_ms": None},
    ]
    print(f"\nSubmitting {len(grid)} jobs...")
    job_ids = []
    for spec in grid:
        body = client.submit(
            spec["experiments"], quick=spec["quick"], horizon_ms=spec["horizon_ms"]
        )
        job = body["job"]
        job_ids.append(job["id"])
        print(f"  {job['id']}: {spec['experiments']} "
              f"({job['planned_runs']} planned runs)")

    print("\nQueue/QoS while the batch drains:")
    pending = set(job_ids)
    while pending:
        gauges = client.metrics()["gauges"]
        print(f"  queue depth {int(gauges['service.queue.depth'])}, "
              f"qos fraction {gauges['service.qos.fraction']:.3f} "
              f"(threshold {gauges['service.qos.threshold']:.2f})")
        for job_id in sorted(pending):
            if client.status(job_id)["state"] in ("done", "failed", "cancelled"):
                pending.discard(job_id)
        time.sleep(0.1)

    for job_id in job_ids:
        doc = client.status(job_id)
        print(f"\n{job_id}: state={doc['state']} "
              f"executed={doc['runs_executed']} cached={doc['runs_cached']}")
        for result in client.result(job_id):
            print(f"  {result['experiment_id']}: {result['title']} "
                  f"({len(result['rows'])} rows)")

    # Same work again: deduped against the live job, i.e. served for free.
    twin = client.submit(grid[0]["experiments"], quick=True, horizon_ms=horizon_ms)
    print(f"\nResubmitted the first job: deduplicated={twin['deduplicated']} "
          f"-> {twin['job']['id']}")

    counters = client.metrics()["counters"]
    print(f"jobs completed: {counters.get('service.jobs.completed', 0)}, "
          f"runs executed: {counters.get('service.runs.executed', 0)}, "
          f"deduplicated submissions: {counters.get('service.jobs.deduplicated', 0)}")

    client.close()
    service.stop()
    print("drained and stopped.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
