"""Unit tests for metric containers and aggregation."""

import math

import pytest

from repro.core.metrics import CpuAppMetrics, GpuMetrics, SystemMetrics, geomean, ratio


def _gpu(name="sssp", progress=1000.0, completed=10):
    return GpuMetrics(
        name=name,
        progress_ns=progress,
        faults_issued=completed,
        faults_completed=completed,
        stall_ns=0.0,
        mean_ssr_latency_ns=100.0,
        max_ssr_latency_ns=200.0,
    )


def _metrics(**overrides):
    base = dict(
        horizon_ns=1_000_000,
        config_label="Default",
        cpu_app=None,
        gpu=None,
        cc6_residency=0.5,
        mode_totals_ns={},
        interrupts_per_core=[10, 10, 10, 10],
        ipis=5,
        ssr_interrupts=8,
        ssr_requests=8,
        ssr_time_ns=100_000.0,
        ssr_completed=8,
        context_switches=3,
        core_wakeups=2,
    )
    base.update(overrides)
    return SystemMetrics(**base)


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_ignores_nonpositive(self):
        assert geomean([4.0, 0.0, -1.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_undefined_value_makes_mean_undefined(self):
        assert math.isnan(geomean([2.0, math.nan, 8.0]))


class TestRatio:
    def test_defined(self):
        assert ratio(3.0, 4.0) == 0.75

    def test_zero_reference_is_undefined(self):
        assert math.isnan(ratio(3.0, 0.0))


class TestGpuMetrics:
    def test_real_app_metric_is_progress(self):
        assert _gpu(name="sssp", progress=777.0).performance_metric() == 777.0

    def test_ubench_metric_is_fault_count(self):
        gpu = _gpu(name="ubench", progress=777.0, completed=42)
        assert gpu.performance_metric() == 42.0


class TestSystemMetrics:
    def test_total_interrupts(self):
        assert _metrics().total_interrupts == 40

    def test_ssr_time_fraction(self):
        metrics = _metrics(ssr_time_ns=400_000.0)
        assert metrics.ssr_time_fraction == pytest.approx(0.1)

    def test_interrupt_balance_even(self):
        assert _metrics().interrupt_balance() == pytest.approx(1.0)

    def test_interrupt_balance_skewed(self):
        metrics = _metrics(interrupts_per_core=[40, 0, 0, 0])
        assert metrics.interrupt_balance() == pytest.approx(4.0)

    def test_balance_with_no_interrupts(self):
        metrics = _metrics(interrupts_per_core=[0, 0, 0, 0])
        assert metrics.interrupt_balance() == 0.0
