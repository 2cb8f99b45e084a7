"""Unit tests for job specs and the TTL'd, deduping job store."""

import pytest

import repro.experiments  # noqa: F401 - populates the registry
from repro.experiments.common import REGISTRY
from repro.service import BadSpec, DONE, FAILED, Job, JobSpec, JobStore, QUEUED


class TestJobSpec:
    def test_single_experiment_field(self):
        spec = JobSpec.from_document({"experiment": "fig4"}, REGISTRY)
        assert spec.experiments == ("fig4",)
        assert spec.quick is False and spec.horizon_ms is None

    def test_full_document(self):
        spec = JobSpec.from_document(
            {"experiments": ["fig4", "fig3a"], "quick": True, "horizon_ms": 2},
            REGISTRY,
        )
        assert spec.experiments == ("fig4", "fig3a")
        assert spec.quick is True
        assert spec.horizon_ms == 2.0

    @pytest.mark.parametrize(
        "doc",
        [
            None,
            [],
            {},
            {"experiments": []},
            {"experiments": ["figZZ"]},
            {"experiment": "fig4", "quick": "yes"},
            {"experiment": "fig4", "horizon_ms": -1},
            {"experiment": "fig4", "horizon_ms": "fast"},
            {"experiment": "fig4", "jobs": 4},
        ],
    )
    def test_bad_documents_rejected(self, doc):
        with pytest.raises(BadSpec):
            JobSpec.from_document(doc, REGISTRY)

    def test_canonical_json_is_stable(self):
        a = JobSpec.from_document({"experiments": ["fig4"], "quick": True}, REGISTRY)
        b = JobSpec.from_document({"quick": True, "experiments": ["fig4"]}, REGISTRY)
        assert a.canonical_json() == b.canonical_json()


def _admit_all(job_id):
    pass


def _spec(experiment="fig4"):
    return JobSpec.from_document({"experiment": experiment}, REGISTRY)


def _finish(store, job, finished_s):
    """What the scheduler does when a job reaches a terminal state."""
    job.state = DONE
    job.finished_s = finished_s
    store.note_finished(job)


class TestJobStore:
    def test_submit_and_get(self):
        store = JobStore(ttl_s=60)
        job, deduped = store.submit(_spec(), "k1", [], [], _admit_all)
        assert not deduped
        assert job.state == QUEUED
        assert store.get(job.id) is job

    def test_duplicate_submission_dedupes(self):
        store = JobStore(ttl_s=60)
        job, _ = store.submit(_spec(), "k1", [], [], _admit_all)
        twin, deduped = store.submit(_spec(), "k1", [], [], _admit_all)
        assert deduped and twin is job
        assert job.submissions == 2

    def test_failed_jobs_do_not_dedupe(self):
        store = JobStore(ttl_s=60)
        job, _ = store.submit(_spec(), "k1", [], [], _admit_all)
        job.state = FAILED
        fresh, deduped = store.submit(_spec(), "k1", [], [], _admit_all)
        assert not deduped and fresh is not job

    def test_rejected_admission_leaves_no_trace(self):
        store = JobStore(ttl_s=60)

        def refuse(job_id):
            raise RuntimeError("queue full")

        with pytest.raises(RuntimeError):
            store.submit(_spec(), "k1", [], [], refuse)
        assert store.jobs() == []
        # The dedupe slot was not burned: a retry can still create the job.
        job, deduped = store.submit(_spec(), "k1", [], [], _admit_all)
        assert not deduped

    def test_ttl_evicts_terminal_jobs_only(self):
        clock = [100.0]
        store = JobStore(ttl_s=10, clock=lambda: clock[0])
        done, _ = store.submit(_spec("fig4"), "k1", [], [], _admit_all)
        queued, _ = store.submit(_spec("fig3a"), "k2", [], [], _admit_all)
        _finish(store, done, 100.0)
        clock[0] = 111.0
        assert store.get(done.id) is None
        assert store.get(queued.id) is queued
        assert store.evicted == 1
        # The dedupe key died with the job: same work creates a fresh job.
        fresh, deduped = store.submit(_spec("fig4"), "k1", [], [], _admit_all)
        assert not deduped and fresh.id != done.id

    def test_jobs_expire_in_finish_order_at_exactly_ttl(self):
        clock = [0.0]
        store = JobStore(ttl_s=10, clock=lambda: clock[0])
        jobs = [
            store.submit(_spec(), f"k{index}", [], [], _admit_all)[0]
            for index in range(3)
        ]
        for index, job in enumerate(jobs):
            _finish(store, job, float(index))
        clock[0] = 10.0  # the first job is exactly ttl_s old: it stays
        assert store.evict_expired() == 0
        clock[0] = 10.5
        assert store.evict_expired() == 1
        assert store.get(jobs[0].id) is None
        assert [job.id for job in store.jobs()] == [jobs[1].id, jobs[2].id]
        # An id a DELETE already removed is skipped, not counted twice.
        assert store.evict(jobs[1].id)
        clock[0] = 12.5
        assert store.evict_expired() == 1
        assert store.jobs() == [] and store.evicted == 3
        fresh, deduped = store.submit(_spec(), "k2", [], [], _admit_all)
        assert not deduped and fresh.id != jobs[2].id

    def test_get_examines_no_retained_job(self, monkeypatch):
        clock = [0.0]
        store = JobStore(ttl_s=900, clock=lambda: clock[0])
        jobs = [
            store.submit(_spec(), f"k{index}", [], [], _admit_all)[0]
            for index in range(9000)
        ]
        for job in jobs:
            _finish(store, job, clock[0])
        first_id = jobs[0].id
        clock[0] = 899.0
        reads = []
        real_getattribute = Job.__getattribute__

        def counting(job, name):
            reads.append(name)
            return real_getattribute(job, name)

        monkeypatch.setattr(Job, "__getattribute__", counting)
        found = store.get(first_id)
        expired = store.evict_expired()
        monkeypatch.undo()
        # 9,000 finished jobs, none expired: expiry reads no job at all.
        assert found is jobs[0] and expired == 0
        assert reads == []

    def test_explicit_evict(self):
        store = JobStore(ttl_s=60)
        job, _ = store.submit(_spec(), "k1", [], [], _admit_all)
        assert store.evict(job.id)
        assert not store.evict(job.id)
        assert store.get(job.id) is None

    def test_counts_by_state(self):
        store = JobStore(ttl_s=60)
        a, _ = store.submit(_spec("fig4"), "k1", [], [], _admit_all)
        b, _ = store.submit(_spec("fig3a"), "k2", [], [], _admit_all)
        a.state = DONE
        assert store.counts() == {DONE: 1, QUEUED: 1}
