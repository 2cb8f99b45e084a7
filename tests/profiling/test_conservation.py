"""The profiler's two load-bearing invariants, as property tests.

* **Conservation**: the ledger's service-channel sum reconciles *exactly*
  (integer nanoseconds, not approximately) with the kernel's SSR time
  accumulator, across randomized fig3a-style (cpu x gpu) and fig4-style
  (idle x gpu) mini-grids and mitigation configs.
* **Zero overhead**: profiling a run never changes its metrics — the
  returned ``SystemMetrics`` are byte-for-byte (dataclass-equality)
  identical with profiling on or off, mirroring the tracer's contract in
  tests/telemetry/test_integration.py.
"""

import random

import pytest

from repro.config import SystemConfig
from repro.core import System
from repro.profiling import (
    SSR_SERVICE_CHANNELS,
    ProfileCollector,
    Profiler,
    set_active_collector,
    validate_profile,
)
from repro.workloads import gpu_app, parsec

HORIZON_NS = 2_000_000

CPU_NAMES = ["blackscholes", "facesim", "fluidanimate"]
GPU_NAMES = ["bfs", "xsbench", "ubench"]


def _configs():
    default = SystemConfig()
    return [
        default,
        default.with_mitigation(coalesce_window_ns=20_000),
        default.with_mitigation(monolithic_bottom_half=True),
    ]


def _grid(seed: int, pairs: int):
    """A randomized mini-grid mixing fig3a and fig4 shapes."""
    rng = random.Random(seed)
    configs = _configs()
    for _ in range(pairs):
        cpu = rng.choice(CPU_NAMES + [None])  # None = fig4's idle-CPU shape
        gpu = rng.choice(GPU_NAMES)
        ssr = rng.random() < 0.8
        yield cpu, gpu, ssr, rng.choice(configs)


def _run(cpu, gpu, ssr, config, profiler=None):
    system = System(config, profiler=profiler)
    if cpu is not None:
        system.add_cpu_app(parsec(cpu))
    system.add_gpu_workload(gpu_app(gpu), ssr_enabled=ssr)
    metrics = system.run(HORIZON_NS)
    return system, metrics


class TestConservation:
    @pytest.mark.parametrize("seed", [7, 23, 1018])
    def test_service_channels_reconcile_exactly(self, seed):
        for cpu, gpu, ssr, config in _grid(seed, pairs=4):
            profiler = Profiler()
            system, _metrics = _run(cpu, gpu, ssr, config, profiler=profiler)
            ledger = profiler.ledger
            total = system.kernel.ssr_accounting.total_ns
            assert ledger.service_total_ns() == total, (cpu, gpu, ssr, config.label)
            # Per-channel totals are individually non-negative and sum back.
            totals = ledger.channel_totals()
            assert sum(totals[ch] for ch in SSR_SERVICE_CHANNELS) == total

    def test_ssr_disabled_run_charges_no_service_time(self):
        profiler = Profiler()
        system, _ = _run("blackscholes", "xsbench", False, SystemConfig(),
                         profiler=profiler)
        assert system.kernel.ssr_accounting.total_ns == 0
        assert profiler.ledger.service_total_ns() == 0

    def test_document_validates(self):
        profiler = Profiler()
        _run(None, "bfs", True, SystemConfig(), profiler=profiler)
        document = profiler.take_document()
        assert document is not None
        assert validate_profile(document) == []
        assert document["ssr_time_ns"] > 0


class TestZeroOverhead:
    @pytest.mark.parametrize("seed", [5, 91])
    def test_profiling_does_not_change_metrics(self, seed):
        for cpu, gpu, ssr, config in _grid(seed, pairs=3):
            _, baseline = _run(cpu, gpu, ssr, config)
            _, profiled = _run(cpu, gpu, ssr, config, profiler=Profiler())
            assert profiled == baseline  # bit-for-bit: dataclass equality

    def test_null_profiler_records_nothing(self):
        system, _ = _run("blackscholes", "xsbench", True, SystemConfig())
        assert system.profiler.enabled is False
        assert system.profiler.take_document() is None
        assert len(system.kernel.ledger) == 0

    def test_active_collector_profiles_new_systems(self):
        collector = ProfileCollector()
        set_active_collector(collector)
        try:
            _, with_collector = _run(None, "bfs", True, SystemConfig())
        finally:
            set_active_collector(None)
        _, without = _run(None, "bfs", True, SystemConfig())
        assert len(collector) == 1
        assert validate_profile(collector.bundle()) == []
        assert with_collector == without
