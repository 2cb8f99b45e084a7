"""Unit tests for CPU application threads and app-level metrics."""

import pytest

from repro.config import SystemConfig
from repro.core import System
from repro.workloads import CpuAppProfile, parsec

SMALL = CpuAppProfile(
    name="small",
    threads=2,
    thread_duty=(1.0, 1.0),
    chunk_ns=300_000,
    ws_lines=64,
)

BARRIERED = CpuAppProfile(
    name="barriered",
    threads=4,
    chunk_ns=200_000,
    barriers=True,
)


def run_app(profile, horizon_ns=5_000_000, config=None):
    system = System(config or SystemConfig())
    app = system.add_cpu_app(profile)
    system.run(horizon_ns)
    return system, app


class TestCpuApp:
    def test_threads_make_progress(self):
        _system, app = run_app(SMALL)
        assert all(t.productive_ns > 0 for t in app.threads)

    def test_one_app_per_system(self):
        system = System(SystemConfig())
        system.add_cpu_app(SMALL)
        with pytest.raises(RuntimeError):
            system.add_cpu_app(BARRIERED)

    def test_instructions_proportional_to_productive_time(self):
        _system, app = run_app(SMALL)
        expected = app.steady.instructions_for_ns(
            app.productive_ns, SystemConfig().cpu.freq_ghz
        )
        assert app.instructions_retired == pytest.approx(expected)

    def test_barrier_app_advances_generations(self):
        _system, app = run_app(BARRIERED)
        assert app.barrier is not None
        assert app.barrier.generations >= 5

    def test_duty_cycle_limits_helper_threads(self):
        _system, app = run_app(parsec("raytrace"), horizon_ns=10_000_000)
        main = app.threads[0].productive_ns
        helpers = [t.productive_ns for t in app.threads[1:]]
        assert all(h < main * 0.25 for h in helpers)

    def test_four_saturating_threads_fill_machine(self):
        _system, app = run_app(parsec("streamcluster"), horizon_ns=10_000_000)
        # 4 threads on 4 cores: aggregate productive time near 4x horizon.
        assert app.productive_ns > 0.75 * 4 * 10_000_000


class TestMetrics:
    def test_increase_metrics_zero_without_ssrs(self):
        _system, app = run_app(parsec("x264"))
        assert app.l1_miss_increase() == 0.0
        assert app.mispredict_increase() == 0.0

    def test_coverage_attributes_sane(self):
        system = System(SystemConfig())
        app = system.add_cpu_app(parsec("x264"))
        for thread in app.threads:
            assert 0.0 < thread.cache_coverage <= 1.0
            assert 0.0 < thread.predictor_coverage <= 1.0
            assert thread.reuse_probability == parsec("x264").hot_rate

    def test_canneal_has_low_reuse_probability(self):
        system = System(SystemConfig())
        app = system.add_cpu_app(parsec("canneal"))
        assert app.threads[0].reuse_probability < 0.5
