"""Experiment runner: normalized pairwise runs with result caching.

The paper's methodology (Section III) runs independent CPU and GPU
applications concurrently and reports performance *relative to a baseline*:

* CPU bars: the same pair with the GPU generating **no SSRs** (pinned
  memory) — so any drop is attributable purely to SSR interference.
* GPU bars: the same GPU app with **idle CPUs**.
* ubench "performance": SSR completion rate.

Runs are memoized on ``(cpu, gpu, ssr, config, horizon)`` since every
figure reuses baselines heavily.  The memo table is the first level of a
two-level cache: an opt-in on-disk store (see :mod:`repro.core.runcache`
and ``hiss experiments --cache-dir``) persists runs across invocations,
content-addressed by a stable key digest plus a code fingerprint.

The module also supports *planning mode* (see :func:`planning`): inside
the context, :func:`run_workloads` records the run key it was asked for
and returns a cheap placeholder instead of simulating — this is how the
parallel engine (:mod:`repro.core.planner`) discovers an experiment's full
run set up front, so it can dedupe shared baselines across figures and
fan the unique runs out over a worker pool.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Set

from ..config import SystemConfig
from ..oskernel import accounting as acct
from ..workloads import gpu_app, parsec
from .metrics import CpuAppMetrics, GpuMetrics, SystemMetrics, ratio
from .runcache import (
    COST_LEDGER_NAME,
    DiskCache,
    RunKey,
    cost_model,
    set_cost_ledger,
)
from .system import DEFAULT_HORIZON_NS, System

_CACHE: Dict[RunKey, SystemMetrics] = {}

#: The second cache level; ``None`` until :func:`set_disk_cache` installs one.
_DISK_CACHE: Optional[DiskCache] = None

#: While planning, the set collecting every requested run key (else None).
_PLANNING: Optional[Set[RunKey]] = None


def clear_cache() -> None:
    """Drop memoized runs and the result documents assembled from them
    (tests use this to force re-execution).

    Only the in-memory level is dropped; on-disk entries stay valid.
    """
    from .planner import _RENDERED  # lazy: the planner imports this module

    _CACHE.clear()
    _RENDERED.clear()


def set_disk_cache(cache: Optional[DiskCache]) -> None:
    """Install (or with ``None`` remove) the process-wide disk cache.

    The run-cost ledger lives alongside the result entries, so attaching
    a disk cache also re-seeds the cost model from that directory's past
    timings (and detaching resets it to memory-only).
    """
    global _DISK_CACHE
    _DISK_CACHE = cache
    set_cost_ledger(
        os.path.join(cache.directory, COST_LEDGER_NAME) if cache is not None else None
    )


def get_disk_cache() -> Optional[DiskCache]:
    return _DISK_CACHE


def configure_disk_cache(directory: Optional[str]) -> Optional[DiskCache]:
    """Point the second cache level at ``directory`` (``None`` disables)."""
    cache = DiskCache(directory) if directory else None
    set_disk_cache(cache)
    return cache


def make_run_key(
    cpu_name: Optional[str],
    gpu_name: Optional[str],
    ssr_enabled: bool,
    config: SystemConfig,
    horizon_ns: int,
) -> RunKey:
    """The canonical memo/cache key of one run request."""
    return (cpu_name, gpu_name, bool(ssr_enabled), config, horizon_ns)


def simulate_run(key: RunKey, tracer=None, profiler=None) -> SystemMetrics:
    """Build and execute the system described by ``key`` (no caching).

    This is the single simulation entry point shared by ``run_workloads``
    and :func:`~repro.core.pool.run_task` (in-process or in a pool
    worker), so every path runs the same computation — bit for bit.
    ``tracer`` and ``profiler`` are pure side channels: passing either
    never changes the returned metrics.
    """
    cpu_name, gpu_name, ssr_enabled, config, horizon_ns = key
    system = System(config, tracer=tracer, profiler=profiler)
    if cpu_name is not None:
        system.add_cpu_app(parsec(cpu_name))
    if gpu_name is not None:
        system.add_gpu_workload(gpu_app(gpu_name), ssr_enabled=ssr_enabled)
    return system.run(horizon_ns)


def cache_lookup(key: RunKey) -> Optional[SystemMetrics]:
    """Consult both cache levels; promotes disk hits into memory."""
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    if _DISK_CACHE is not None:
        metrics = _DISK_CACHE.get(key)
        if metrics is not None:
            _CACHE[key] = metrics
            return metrics
    return None


def cache_store(
    key: RunKey, metrics: SystemMetrics, elapsed_s: Optional[float] = None
) -> None:
    """Record a finished run in both cache levels.

    ``elapsed_s`` (when the caller timed the run) is persisted with the
    disk entry so the cost model can be rebuilt from the cache directory.
    """
    _CACHE[key] = metrics
    if _DISK_CACHE is not None:
        _DISK_CACHE.put(key, metrics, elapsed_s=elapsed_s)


def planning_active() -> bool:
    """True while a :func:`planning` context is recording run keys.

    A layer that fans runs out through :func:`~repro.core.planner.execute_runs`
    itself (the search driver) must skip the fan-out when the planner is
    merely recording its grid — otherwise a planning pass would actually
    simulate.
    """
    return _PLANNING is not None


@contextmanager
def planning() -> Iterator[Set[RunKey]]:
    """Record run keys instead of simulating; yields the collecting set."""
    global _PLANNING
    if _PLANNING is not None:
        raise RuntimeError("planning contexts do not nest")
    _PLANNING = collected = set()
    try:
        yield collected
    finally:
        _PLANNING = None


def _placeholder_metrics(key: RunKey) -> SystemMetrics:
    """A benign stand-in returned while planning (never cached).

    Values are positive and self-consistent so the arithmetic downstream
    of :func:`run_workloads` (ratios, geomeans, balances) runs without
    dividing by zero; the numbers themselves are meaningless.
    """
    cpu_name, gpu_name, _ssr_enabled, config, horizon_ns = key
    cpu_metrics = None
    if cpu_name is not None:
        cpu_metrics = CpuAppMetrics(
            name=cpu_name,
            instructions=1e6,
            productive_ns=float(horizon_ns),
            pollution_stall_ns=1e3,
            extra_l1_misses=1.0,
            extra_mispredicts=1.0,
            l1_miss_increase=0.01,
            mispredict_increase=0.01,
        )
    gpu_metrics = None
    if gpu_name is not None:
        gpu_metrics = GpuMetrics(
            name=gpu_name,
            progress_ns=float(horizon_ns),
            faults_issued=100,
            faults_completed=100,
            stall_ns=1e3,
            mean_ssr_latency_ns=1e4,
            max_ssr_latency_ns=1e5,
        )
    cores = config.cpu.num_cores
    return SystemMetrics(
        horizon_ns=horizon_ns,
        config_label=config.label,
        cpu_app=cpu_metrics,
        gpu=gpu_metrics,
        cc6_residency=0.5,
        mode_totals_ns={mode: 1e6 for mode in acct.ALL_MODES},
        interrupts_per_core=[1] * cores,
        ipis=1,
        ssr_interrupts=1,
        ssr_requests=1,
        ssr_time_ns=1e3,
        ssr_completed=1,
        context_switches=1,
        core_wakeups=1,
    )


def run_workloads(
    cpu_name: Optional[str],
    gpu_name: Optional[str],
    ssr_enabled: bool = True,
    config: Optional[SystemConfig] = None,
    horizon_ns: int = DEFAULT_HORIZON_NS,
) -> SystemMetrics:
    """Run one (cpu, gpu) co-execution and return its metrics (memoized)."""
    config = config or SystemConfig()
    key = make_run_key(cpu_name, gpu_name, ssr_enabled, config, horizon_ns)
    if _PLANNING is not None:
        _PLANNING.add(key)
        cached = _CACHE.get(key)
        return cached if cached is not None else _placeholder_metrics(key)
    cached = cache_lookup(key)
    if cached is not None:
        return cached
    begin = time.perf_counter()
    metrics = simulate_run(key)
    elapsed_s = time.perf_counter() - begin
    cost_model().observe(key, elapsed_s)
    cache_store(key, metrics, elapsed_s=elapsed_s)
    return metrics


# ----------------------------------------------------------------------
# The paper's normalized quantities
# ----------------------------------------------------------------------
def cpu_relative_performance(
    cpu_name: str,
    gpu_name: str,
    config: Optional[SystemConfig] = None,
    horizon_ns: int = DEFAULT_HORIZON_NS,
    baseline_config: Optional[SystemConfig] = None,
) -> float:
    """Fig. 3a quantity: CPU app performance with SSRs, normalized to the
    same pair without SSRs (under ``baseline_config`` if given)."""
    with_ssr = run_workloads(cpu_name, gpu_name, True, config, horizon_ns)
    without_ssr = run_workloads(
        cpu_name, gpu_name, False, baseline_config or config, horizon_ns
    )
    return with_ssr.cpu_app.instructions / without_ssr.cpu_app.instructions


def gpu_relative_performance(
    gpu_name: str,
    cpu_name: Optional[str],
    config: Optional[SystemConfig] = None,
    horizon_ns: int = DEFAULT_HORIZON_NS,
    baseline_config: Optional[SystemConfig] = None,
) -> float:
    """Fig. 3b quantity: GPU performance running with ``cpu_name``,
    normalized to the same GPU app with idle CPUs (NaN if that made no
    progress)."""
    pair = run_workloads(cpu_name, gpu_name, True, config, horizon_ns)
    idle = run_workloads(None, gpu_name, True, baseline_config or config, horizon_ns)
    return ratio(pair.gpu.performance_metric(), idle.gpu.performance_metric())


def cpu_mitigation_ratio(
    cpu_name: str,
    gpu_name: str,
    config: SystemConfig,
    default_config: SystemConfig,
    horizon_ns: int = DEFAULT_HORIZON_NS,
) -> float:
    """Fig. 6a/c/e quantity: CPU performance under a mitigation, normalized
    to the default configuration (both with SSRs)."""
    mitigated = run_workloads(cpu_name, gpu_name, True, config, horizon_ns)
    default = run_workloads(cpu_name, gpu_name, True, default_config, horizon_ns)
    return mitigated.cpu_app.instructions / default.cpu_app.instructions


def gpu_mitigation_ratio(
    cpu_name: Optional[str],
    gpu_name: str,
    config: SystemConfig,
    default_config: SystemConfig,
    horizon_ns: int = DEFAULT_HORIZON_NS,
) -> float:
    """Fig. 6b/d/f quantity: GPU performance under a mitigation, normalized
    to the default configuration (both with the same CPU app; NaN if that
    made no progress)."""
    mitigated = run_workloads(cpu_name, gpu_name, True, config, horizon_ns)
    default = run_workloads(cpu_name, gpu_name, True, default_config, horizon_ns)
    return ratio(mitigated.gpu.performance_metric(), default.gpu.performance_metric())
