"""Shared plumbing for the three workloads: paths, clocks, statistics, spans.

Nothing here imports ``repro`` at module level; :func:`require_program`
puts the checkout's ``src`` on ``sys.path`` (the program is pure Python,
so "building it from source" is just importing it from there) and fails
cleanly when the checkout holds no program.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from probe import run_probe_ms, slowdown

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Work space for caches, journals, ops logs (removed after each run).
WORK_ROOT = os.path.join(REPO_ROOT, ".perfbench-work")
#: Simulated horizon of every run the benchmark requests, in milliseconds.
HORIZON_MS = 5.0


class ProgramMissing(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def require_program() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/repro``."""
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise ProgramMissing(f"no program at {SRC_DIR}/repro")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def program_env() -> Dict[str, str]:
    """Environment for a child process that imports the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# Clocks and process accounting
# ----------------------------------------------------------------------
def seconds_since_process_start() -> float:
    """Wall seconds since this process started (10 ms resolution)."""
    with open("/proc/self/stat", "r") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of stat(5), after pid and comm
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf(
        "SC_CLK_TCK"
    )


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat", "r") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MiB (this process, or ``pid`` via /proc)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", "r") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(values: Sequence[float], percentile: float) -> float:
    """Harrell-Davis estimate of a percentile.

    A weighted mean of every order statistic, the weights peaking at the
    percentile's rank.  Unlike the sample median, it does not jump when
    noise swaps the two samples either side of a gap between run types,
    which on these workloads made the sample median the least steady
    figure from run to run.  No samples (every operation failed) read 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0
    p = percentile / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * ordered[i] for i in range(n))


@dataclass
class Tail:
    """A tail latency with the percentile and sample count it rests on."""

    value: float
    percentile: float
    samples: int

    def describe(self, unit: str) -> str:
        if not self.percentile:
            return f"n/a (only {self.samples} samples; reported as 0)"
        return (
            f"{self.value:.3f} {unit} = p{self.percentile:.1f} of "
            f"{self.samples} samples"
        )


def tail(values: Sequence[float], beyond: int = 10) -> Tail:
    """The highest percentile of ``values`` with at least ``beyond`` samples
    above it; 0 at percentile 0 when there are too few (failed operations)."""
    n = len(values)
    if n <= beyond:
        return Tail(0.0, 0.0, n)
    percentile = 100.0 * (n - beyond) / n  # e.g. 95.0 for 200 samples
    return Tail(quantile(values, percentile), percentile, n)


# ----------------------------------------------------------------------
# Outcome of one workload run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What a workload measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: (check name, passed, detail) — each failed check is a failed op.
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: Human-readable lines printed above the result.
    notes: List[str] = field(default_factory=list)
    #: Per-operation measurements (e.g. each job's latency) for inspection.
    samples: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        """Record a check that counts as one operation (failed if not passed)."""
        self.verdict(name, passed, detail)
        self.attempted += 1
        if not passed:
            self.failed += 1
        return passed

    def verdict(self, name: str, passed: bool, detail: str = "") -> None:
        """Record the verdict of a check whose operations were counted already."""
        self.checks.append((name, passed, detail))


# ----------------------------------------------------------------------
# Spans the benchmark records around its calls into the program
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start_s: float
    end_s: float
    parent: Optional[int]

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class SpanLog:
    """In-memory spans with parent links, written out when the run ends."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end_s = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time_s(self, name: str) -> float:
        """Σ duration of ``name`` spans minus the time their children cover."""
        total = 0.0
        for index, span in enumerate(self.spans):
            if span.name != name:
                continue
            covered = sum(
                child.duration_s for child in self.spans if child.parent == index
            )
            total += span.duration_s - covered
        return total


def is_ssr_run(key) -> bool:
    """SSR runs touch kernel and user uarch windows; the rest only user."""
    return key[1] is not None and bool(key[2])


class RunRecorder:
    """Stands in for ``simulate_run``: probes the host before every run,
    times the run, and groups runs into units of work (a pass, a sweep).

    Times are reported *host-speed-adjusted*: each unit's wall time and
    run times are divided by the unit's :func:`probe.slowdown`, the mean
    of the short probes taken around its runs over the reference reading.
    On a shared host whose speed drifts by tens of percent over minutes
    this cancels most of the drift; the raw figures are kept too.
    """

    def __init__(self, simulate: Callable, spans: SpanLog):
        self.simulate = simulate
        self.spans = spans
        self.units: List[Dict[str, Any]] = []

    def begin_unit(self) -> Dict[str, Any]:
        unit = {"runs": [], "probes_ms": [], "probe_s": 0.0,
                "begin_s": time.perf_counter()}
        self.units.append(unit)
        return unit

    def _probe(self) -> None:
        # A span of its own, so no caller's self time counts the probe.
        with self.spans.span("probe") as span:
            probe_ms = run_probe_ms()
        unit = self.units[-1]
        unit["probes_ms"].append(probe_ms)
        unit["probe_s"] += span.duration_s

    def end_unit(self) -> None:
        self._probe()
        unit = self.units[-1]
        elapsed = time.perf_counter() - unit["begin_s"]
        unit["wall_s"] = elapsed - unit["probe_s"]
        unit["slowdown"] = slowdown(unit["probes_ms"])

    def __call__(self, key, tracer=None, profiler=None):
        self._probe()
        with self.spans.span("simulate_run") as span:
            metrics = self.simulate(key, tracer=tracer, profiler=profiler)
        self.units[-1]["runs"].append((key, metrics, span))
        return metrics

    def all_runs(self) -> List[tuple]:
        return [run for unit in self.units for run in unit["runs"]]

    def wall_s(self, adjusted: bool = True) -> float:
        return sum(
            u["wall_s"] / (u["slowdown"] if adjusted else 1.0) for u in self.units
        )

    def ssr_run_ms(self, adjusted: bool = True) -> List[float]:
        """Host time of every SSR run (the workloads' *jobs*), in ms."""
        return [
            1000.0 * span.duration_s / (unit["slowdown"] if adjusted else 1.0)
            for unit in self.units
            for key, _metrics, span in unit["runs"]
            if is_ssr_run(key)
        ]

    def mean_slowdown(self) -> float:
        return sum(u["slowdown"] for u in self.units) / len(self.units)

    def probes_ms(self) -> List[float]:
        """Every probe taken, in order (``host.probe_ms``)."""
        return [probe for unit in self.units for probe in unit["probes_ms"]]


@contextmanager
def patched(owner: Any, attribute: str, replacement: Callable) -> Iterator[None]:
    """Temporarily replace ``owner.attribute`` (a module or class member)."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def cpu_ticks(cpu: int) -> Tuple[int, int]:
    """``(stolen, elapsed)`` clock ticks of one CPU since boot (/proc/stat)."""
    with open("/proc/stat", "r") as handle:
        for line in handle:
            if line.startswith(f"cpu{cpu} "):
                ticks = [int(v) for v in line.split()[1:9]]
                return ticks[7], sum(ticks)
    raise RuntimeError(f"no cpu{cpu} in /proc/stat")


def steal_share(cpu: int, since: Tuple[int, int]) -> float:
    """Share of the wall time since ``since`` the hypervisor ran someone else
    on ``cpu``: time a CPU-time probe cannot see but a wall clock does."""
    stolen, elapsed = cpu_ticks(cpu)
    return (stolen - since[0]) / max(1, elapsed - since[1])


@contextmanager
def one_cpu() -> Iterator[int]:
    """Pin this process, and the processes it starts meanwhile, to the
    allowed CPU that has had the least of its time stolen since boot."""
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed, key=lambda c: steal_share(c, (0, 0)))
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


# ----------------------------------------------------------------------
# Work directories
# ----------------------------------------------------------------------
@contextmanager
def workdir(name: str) -> Iterator[str]:
    """A fresh work directory inside the checkout, removed afterwards."""
    path = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it


def fresh_dir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
