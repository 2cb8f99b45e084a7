"""Unit tests for the bounded queue and the service QoS governor.

Both take injectable clocks, so every scenario here is deterministic:
no sleeps, no timing margins.
"""

import pytest

from repro.service import AdmissionController, RejectedJob, ServiceGovernor

from .conftest import FakeClock


def make_governor(clock, **overrides):
    kwargs = dict(
        threshold=0.5,
        capacity_cores=2,
        sample_period_s=1.0,
        window_s=1.0,  # alpha == 1: the sample replaces the EWMA outright
        initial_delay_s=0.5,
        max_delay_s=4.0,
        clock=clock,
    )
    kwargs.update(overrides)
    return ServiceGovernor(**kwargs)


class TestServiceGovernor:
    def test_idle_governor_admits(self):
        clock = FakeClock()
        governor = make_governor(clock)
        clock.advance(2.0)
        assert governor.admission_delay_s() == 0.0
        assert not governor.over_threshold

    def test_fraction_tracks_busy_share(self):
        clock = FakeClock()
        governor = make_governor(clock)
        # 2 cores for 10s = 20 core-seconds capacity; 5 busy = 25%.
        governor.note_busy(5.0)
        clock.advance(10.0)
        assert governor.admission_delay_s() == 0.0
        assert governor.fraction == pytest.approx(0.25)

    def test_backoff_doubles_to_ceiling_then_resets(self):
        clock = FakeClock()
        governor = make_governor(clock)
        governor.note_busy(30.0)  # 150% of a 10s window: way over threshold
        clock.advance(10.0)
        delays = [governor.admission_delay_s() for _ in range(5)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 4.0]  # Fig. 11 shape, capped
        assert governor.throttle_events == 5
        # Load drains: next window shows idle, delay resets to 0.
        clock.advance(10.0)
        assert governor.admission_delay_s() == 0.0
        assert governor.delay_s == 0.0

    def test_ewma_smooths_across_windows(self):
        clock = FakeClock()
        governor = make_governor(clock, window_s=20.0)
        governor.note_busy(20.0)  # 100% of the first 10s window
        clock.advance(10.0)
        governor.admission_delay_s()
        first = governor.fraction
        assert first == pytest.approx(0.5)  # alpha = 10/20
        clock.advance(10.0)  # idle window decays it, not zeroes it
        governor.admission_delay_s()
        assert 0.0 < governor.fraction < first

    def test_resample_respects_period(self):
        clock = FakeClock()
        governor = make_governor(clock, sample_period_s=5.0)
        governor.note_busy(100.0)
        clock.advance(1.0)  # under the sample period: no sample taken yet
        assert governor.admission_delay_s() == 0.0
        assert governor.fraction == 0.0

    def test_negative_busy_rejected(self):
        with pytest.raises(ValueError):
            make_governor(FakeClock()).note_busy(-1.0)


class TestAdmissionController:
    def test_bounded_queue_rejects_overflow(self):
        admission = AdmissionController(queue_limit=2)
        admission.try_admit("a")
        admission.try_admit("b")
        with pytest.raises(RejectedJob) as excinfo:
            admission.try_admit("c")
        assert excinfo.value.reason == "queue-full"
        assert excinfo.value.retry_after_s > 0
        assert admission.rejected_queue_full == 1
        assert admission.depth() == 2

    def test_retry_after_scales_with_backlog_estimate(self):
        admission = AdmissionController(queue_limit=4)
        for job_id in "abcd":
            admission.try_admit(job_id)
        admission.note_service_time(10.0)
        with pytest.raises(RejectedJob) as excinfo:
            admission.try_admit("e")
        # 4 queued jobs at the EWMA'd service time: a real hint, not a floor.
        assert excinfo.value.retry_after_s > 4.0

    def test_take_batch_drains_fifo(self):
        admission = AdmissionController(queue_limit=8)
        for job_id in "abc":
            admission.try_admit(job_id)
        assert admission.take_batch(timeout_s=0) == ["a", "b", "c"]
        assert admission.take_batch(timeout_s=0) == []

    def test_take_batch_respects_max_items(self):
        admission = AdmissionController(queue_limit=8)
        for job_id in "abc":
            admission.try_admit(job_id)
        assert admission.take_batch(max_items=2, timeout_s=0) == ["a", "b"]
        assert admission.take_batch(timeout_s=0) == ["c"]

    def test_requeue_front_preserves_order(self):
        admission = AdmissionController(queue_limit=8)
        for job_id in "abc":
            admission.try_admit(job_id)
        batch = admission.take_batch(timeout_s=0)
        admission.requeue_front(batch)
        assert admission.take_batch(timeout_s=0) == ["a", "b", "c"]

    def test_governor_gate_precedes_queue(self):
        clock = FakeClock()
        governor = make_governor(clock, threshold=0.0)
        governor.note_busy(5.0)
        clock.advance(10.0)
        admission = AdmissionController(queue_limit=8, governor=governor)
        with pytest.raises(RejectedJob) as excinfo:
            admission.try_admit("a")
        assert excinfo.value.reason == "qos-backpressure"
        assert admission.rejected_backpressure == 1
        assert admission.depth() == 0

    def test_job_that_simulates_nothing_skips_governor_not_queue(self):
        clock = FakeClock()
        governor = make_governor(clock, threshold=0.0)
        governor.note_busy(5.0)
        clock.advance(10.0)
        admission = AdmissionController(queue_limit=2, governor=governor)
        admission.try_admit("cached-a", simulates=False)
        admission.try_admit("cached-b", simulates=False)
        assert admission.depth() == 2
        assert governor.throttle_events == 0
        with pytest.raises(RejectedJob) as excinfo:
            admission.try_admit("cached-c", simulates=False)
        assert excinfo.value.reason == "queue-full"
        with pytest.raises(RejectedJob) as excinfo:
            admission.try_admit("new-work")
        assert excinfo.value.reason == "qos-backpressure"
