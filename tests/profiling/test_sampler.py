"""Sim-time sampler: cadence, snapshot shape, and bounded decimation."""

import pytest

from repro.config import SystemConfig
from repro.core import System
from repro.profiling import Profiler
from repro.profiling.sampler import MODE_CODES, SAMPLE_COLUMNS, SimSampler
from repro.workloads import gpu_app, parsec

HORIZON_NS = 2_000_000


def _profiled_run(interval_ns=100_000, capacity=4096, cpu="blackscholes", gpu="xsbench"):
    profiler = Profiler(sample_interval_ns=interval_ns, sampler_capacity=capacity)
    system = System(SystemConfig(), profiler=profiler)
    if cpu is not None:
        system.add_cpu_app(parsec(cpu))
    if gpu is not None:
        system.add_gpu_workload(gpu_app(gpu))
    system.run(HORIZON_NS)
    return profiler


class TestValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SimSampler(interval_ns=0)

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            SimSampler(capacity=8)

    def test_double_attach_rejected(self):
        sampler = SimSampler()
        system = System(SystemConfig())
        sampler.attach(system)
        with pytest.raises(RuntimeError):
            sampler.attach(system)


class TestSampling:
    def test_fixed_cadence_without_decimation(self):
        profiler = _profiled_run(interval_ns=100_000)
        sampler = profiler.sampler
        # First tick at t=interval; horizon/interval ticks in total.
        assert len(sampler.samples) == HORIZON_NS // 100_000
        assert sampler.decimations == 0
        timestamps = [row[0] for row in sampler.samples]
        assert timestamps == sorted(timestamps)
        deltas = {b - a for a, b in zip(timestamps, timestamps[1:])}
        assert deltas == {100_000}

    def test_snapshot_shape(self):
        profiler = _profiled_run()
        num_cores = SystemConfig().cpu.num_cores
        for row in profiler.sampler.samples:
            ts_ns, core_modes, ppr_depth, outstanding, cc6_ns = row
            assert 0 < ts_ns <= HORIZON_NS
            assert len(core_modes) == num_cores
            assert set(core_modes) <= set(MODE_CODES.values())
            assert ppr_depth >= 0
            assert outstanding >= 0
            assert cc6_ns >= 0

    def test_cc6_residency_monotone(self):
        profiler = _profiled_run(cpu=None)  # idle cores sleep between bursts
        cc6 = [row[4] for row in profiler.sampler.samples]
        assert cc6 == sorted(cc6)
        assert cc6[-1] > 0

    def test_decimation_bounds_memory_and_doubles_interval(self):
        profiler = _profiled_run(interval_ns=10_000, capacity=16)
        sampler = profiler.sampler
        assert sampler.decimations > 0
        assert len(sampler.samples) < 16
        assert sampler.interval_ns == 10_000 * 2 ** sampler.decimations
        timestamps = [row[0] for row in sampler.samples]
        assert timestamps == sorted(timestamps)
        # Replay the tick rule: the earlier sample of each merged pair
        # survives, so the first tick (t = one interval) is never dropped.
        expected, interval, now = [], 10_000, 10_000
        while now < HORIZON_NS:
            expected.append(now)
            if len(expected) >= 16:
                expected = [expected[i] for i in range(0, len(expected), 2)]
                interval *= 2
            now += interval
        assert timestamps == expected
        assert timestamps[0] == 10_000

    def test_as_dict_round_trips(self):
        profiler = _profiled_run()
        doc = profiler.sampler.as_dict()
        assert doc["columns"] == list(SAMPLE_COLUMNS)
        assert doc["initial_interval_ns"] == 100_000
        assert doc["mode_codes"] == MODE_CODES
        assert len(doc["rows"]) == len(profiler.sampler.samples)
        assert all(len(row) == len(SAMPLE_COLUMNS) for row in doc["rows"])
