"""Serving-tier behavior of the warm execution backend.

Drives the scheduler directly (no HTTP, no drain thread) to pin down
what the ISSUE promises: a job whose planned run fails is FAILED with
the worker's traceback while its batch siblings complete, the cost
model's batch estimate is charged to the governor before execution, and
the pool's lifetime counters surface through the service gauges.
"""

import pytest

from repro.config import SystemConfig
from repro.core import (
    clear_cache,
    make_run_key,
    set_cost_ledger,
    set_disk_cache,
    shared_pool_stats,
    shutdown_shared_pool,
)
from repro.experiments.common import REGISTRY
from repro.service import DONE, FAILED, JobScheduler, JobSpec, JobStore
from repro.service.admission import AdmissionController, ServiceGovernor
from repro.service.scheduler import dedupe_key_for, plan_spec
from repro.telemetry import MetricsRegistry

from .conftest import FakeClock

HORIZON = 1_000_000
BOGUS_KEY = make_run_key("not-a-real-app", "bfs", True, SystemConfig(), HORIZON)


@pytest.fixture(autouse=True)
def isolated_everything():
    clear_cache()
    set_disk_cache(None)
    set_cost_ledger(None)
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()
    clear_cache()
    set_disk_cache(None)
    set_cost_ledger(None)


def make_scheduler(jobs=2, governor=None):
    store = JobStore(ttl_s=600)
    admission = AdmissionController(queue_limit=16, governor=governor)
    metrics = MetricsRegistry()
    scheduler = JobScheduler(
        store, admission, metrics, jobs=jobs, governor=governor, trace=False
    )
    return store, scheduler, metrics


def submit(store, spec, run_keys, tag):
    job, deduped = store.submit(spec, tag, run_keys, [], lambda _job_id: None)
    assert not deduped
    return job


def fig4_spec():
    return JobSpec.from_document(
        {"experiment": "fig4", "quick": True, "horizon_ms": 1.0}, REGISTRY
    )


class TestBatchCrashIsolation:
    def test_failed_run_fails_only_the_jobs_that_planned_it(self):
        governor = ServiceGovernor(threshold=10.0, capacity_cores=2)
        store, scheduler, metrics = make_scheduler(governor=governor)
        spec = fig4_spec()
        run_keys, serial_only = plan_spec(spec)
        assert run_keys and not serial_only

        sibling = submit(store, spec, run_keys, dedupe_key_for(spec, run_keys))
        broken = submit(store, spec, run_keys + [BOGUS_KEY], "broken-twin")

        scheduler._run_batch([broken.id, sibling.id])

        # The broken job failed with the worker's actual traceback...
        assert broken.state == FAILED
        assert "planned runs failed" in broken.error
        assert "not-a-real-app" in broken.error
        # ...while its batch sibling rendered its tables untouched.
        assert sibling.state == DONE
        assert sibling.error is None
        assert sibling.results and sibling.results[0]["rows"]
        assert metrics.counter("service.runs.failed").value == 1
        assert metrics.counter("service.jobs.failed").value == 1
        assert metrics.counter("service.jobs.completed").value == 1

    def test_prediction_charged_to_governor_before_execution(self):
        model = set_cost_ledger(None)
        model.observe(make_run_key("x264", "bfs", True, SystemConfig(), HORIZON), 0.05)
        governor = ServiceGovernor(threshold=10.0, capacity_cores=2)
        store, scheduler, _ = make_scheduler(governor=governor)
        spec = fig4_spec()
        run_keys, _ = plan_spec(spec)
        job = submit(store, spec, run_keys, dedupe_key_for(spec, run_keys))
        predicted = sum(model.predict(key) for key in run_keys)

        scheduler._run_batch([job.id])

        assert job.state == DONE
        # A model with an observation priced the pending keys and the
        # scheduler charged that estimate up front (a lifetime total, so
        # it survives the post-batch true-up).
        assert governor.predicted_core_s == pytest.approx(predicted)
        assert governor.snapshot()["predicted_core_s"] == governor.predicted_core_s

    def test_unobserved_model_charges_only_actual_work(self):
        model = set_cost_ledger(None)
        assert model.observations == 0
        clock = FakeClock()
        governor = ServiceGovernor(
            threshold=10.0, capacity_cores=2, sample_period_s=1.0, window_s=1.0,
            clock=clock,
        )
        store, scheduler, _ = make_scheduler(governor=governor)
        spec = fig4_spec()
        run_keys, _ = plan_spec(spec)
        job = submit(store, spec, run_keys, dedupe_key_for(spec, run_keys))
        records = []
        scheduler.ops_log.tee = records.append

        scheduler._run_batch([job.id])

        assert job.state == DONE
        # Nothing was charged up front: an unobserved model predicts 0.0.
        assert governor.predicted_core_s == 0.0
        # The post-batch residual charged the measured execution in full.
        (executed,) = [r for r in records if r["event"] == "batch.executed"]
        assert executed["runs"] == len(run_keys)
        clock.advance(1.0)
        used = min(2, executed["runs"])
        assert governor.snapshot()["fraction"] == pytest.approx(
            executed["execute_s"] * used / (1.0 * 2)
        )
        # ... and the model has now observed every run it executed.
        assert model.observations == len(run_keys)

    def test_note_predicted_rejects_negative(self):
        governor = ServiceGovernor()
        with pytest.raises(ValueError):
            governor.note_predicted(-0.1)


class TestPoolGauges:
    def test_batches_share_the_resident_pool(self):
        store, scheduler, _ = make_scheduler(jobs=2)
        spec = fig4_spec()
        run_keys, _ = plan_spec(spec)
        first = submit(store, spec, run_keys, dedupe_key_for(spec, run_keys))
        scheduler._run_batch([first.id])
        assert first.state == DONE
        spawned_after_first = shared_pool_stats()["spawned_workers"]
        assert spawned_after_first == 2.0

        # Different horizon => disjoint run keys => real second batch.
        other = JobSpec.from_document(
            {"experiment": "fig4", "quick": True, "horizon_ms": 1.5}, REGISTRY
        )
        other_keys, _ = plan_spec(other)
        assert not set(other_keys) & set(run_keys)
        second = submit(store, other, other_keys, dedupe_key_for(other, other_keys))
        scheduler._run_batch([second.id])
        assert second.state == DONE

        stats = shared_pool_stats()
        assert stats["spawned_workers"] == spawned_after_first  # zero new
        assert stats["batches"] == 2.0
        assert stats["warm_hits"] >= 1.0
        assert stats["warm_hit_ratio"] > 0.0

    def test_service_gauges_expose_pool_and_cost_model(self):
        from repro.service import HissService

        svc = HissService(port=0, jobs=2, qos_threshold=10.0)
        gauges = svc.gauges()
        for name in (
            "service.pool.spawned_workers",
            "service.pool.live_workers",
            "service.pool.warm_hit_ratio",
            "service.cost_model.observations",
        ):
            assert name in gauges
