"""Unit tests for the ablation sweeps (small parameter lists)."""

import pytest

from repro.experiments import run_experiment

HORIZON = 6_000_000


class TestSweepCoalesce:
    def test_larger_window_fewer_interrupts(self):
        result = run_experiment(
            "sweep_coalesce", windows_us=[0, 26], horizon_ns=HORIZON
        )
        interrupts = result.column("ssr_interrupts(ubench)")
        assert interrupts[1] < interrupts[0]

    def test_larger_window_more_blocking_latency(self):
        result = run_experiment(
            "sweep_coalesce", windows_us=[0, 52], horizon_ns=HORIZON
        )
        latency = result.column("sssp_latency_us")
        assert latency[1] > latency[0]


class TestSweepOutstanding:
    def test_tiny_window_limits_throughput(self):
        result = run_experiment(
            "sweep_outstanding", limits=[1, 32], horizon_ns=HORIZON
        )
        rates = result.column("ubench_ssrs_per_s")
        assert rates[0] < 0.7 * rates[1]

    def test_rates_monotone_nondecreasing(self):
        result = run_experiment(
            "sweep_outstanding", limits=[1, 4, 32], horizon_ns=HORIZON
        )
        rates = result.column("ubench_ssrs_per_s")
        assert rates[0] <= rates[1] <= rates[2] * 1.05


class TestSweepDispatch:
    def test_monolithic_gain_scales_with_latency(self):
        result = run_experiment(
            "sweep_dispatch", latencies_us=[0, 36], horizon_ns=HORIZON
        )
        gains = result.column("monolithic_gain")
        assert gains[0] == pytest.approx(1.0, abs=0.1)
        assert gains[1] > gains[0]


class TestSweepQos:
    def test_curve_shape(self):
        result = run_experiment(
            "sweep_qos", thresholds=[0.05, 0.01], horizon_ns=HORIZON
        )
        labels = [row[0] for row in result.rows]
        assert labels == ["off", "5%", "1%", "adaptive"]
        cpu = result.column("cpu_perf")
        # off < 5% < 1% on the CPU axis.
        assert cpu[0] < cpu[1] < cpu[2]
        rate = result.column("ubench_rate")
        assert rate[0] > rate[1] > rate[2]

    def test_adaptive_row_throttles_busy_host(self):
        result = run_experiment(
            "sweep_qos", thresholds=[0.05], horizon_ns=HORIZON
        )
        adaptive_cpu = result.cell("adaptive", "cpu_perf")
        off_cpu = result.cell("off", "cpu_perf")
        assert adaptive_cpu > off_cpu


class TestSweepFanOut:
    """A sweep fans out through the planner like any figure."""

    def test_jobs_parallel_rows_identical_to_serial(self):
        from repro.core import clear_cache, prewarm_experiments

        def kwargs_for(_experiment_id):
            return {"thresholds": [0.05], "horizon_ns": HORIZON}

        clear_cache()
        serial = run_experiment("sweep_qos", **kwargs_for("sweep_qos"))
        clear_cache()
        report = prewarm_experiments(["sweep_qos"], kwargs_for, jobs=2)
        assert report.executed == report.planned > 0 and not report.failed
        assert report.pool  # the runs went to worker processes
        parallel = run_experiment("sweep_qos", **kwargs_for("sweep_qos"))
        assert serial.rows == parallel.rows
        clear_cache()

    def test_sweeps_remain_plannable(self):
        from repro.core import clear_cache
        from repro.core.experiment import planning

        clear_cache()
        with planning() as keys:
            run_experiment("sweep_coalesce", windows_us=[0, 13], horizon_ns=HORIZON)
            run_experiment("sweep_dispatch", latencies_us=[0, 36], horizon_ns=HORIZON)
        # Planning recorded the grids without simulating anything.
        assert len(keys) >= 9
        clear_cache()

    def test_fan_out_skips_during_planning(self):
        """A planning pass over a sweep must not execute runs."""
        from repro.core import clear_cache
        from repro.core.experiment import _CACHE, planning

        clear_cache()
        with planning():
            run_experiment("sweep_outstanding", limits=[1, 2], horizon_ns=HORIZON)
        assert len(_CACHE) == 0  # placeholders are never cached
        clear_cache()
