"""Per-run profiler assembly and the process-wide collector.

A :class:`Profiler` bundles one run's :class:`InterferenceLedger` and
:class:`SimSampler` and freezes them into a plain-dict *run document* at
the end of the measured horizon.  A :class:`ProfileCollector` hands a
fresh profiler to every :class:`~repro.core.system.System` built while it
is installed as the process-wide active collector (mirroring
``set_active_tracer``), and gathers the resulting documents into a
*bundle* — what ``hiss experiments --profile`` writes and ``hiss report``
renders.

Profile data lives strictly outside :class:`SystemMetrics`: results are
byte-for-byte identical with profiling on or off, and the profile is a
side-channel artifact like a trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from ..oskernel import accounting as acct
from .ledger import ALL_CHANNELS, NULL_LEDGER, SSR_SERVICE_CHANNELS, InterferenceLedger
from .sampler import DEFAULT_SAMPLE_INTERVAL_NS, DEFAULT_SAMPLER_CAPACITY, SimSampler

if TYPE_CHECKING:  # pragma: no cover
    from ..core.system import System

__all__ = [
    "BUNDLE_SCHEMA",
    "NULL_PROFILER",
    "NullProfiler",
    "ProfileCollector",
    "Profiler",
    "RUN_SCHEMA",
    "get_active_collector",
    "profile_runs",
    "set_active_collector",
    "validate_profile",
]

#: Schema tags embedded in every document (bump on breaking change).
RUN_SCHEMA = "hiss.profile.run/1"
BUNDLE_SCHEMA = "hiss.profile/1"


def run_label_for(system: "System") -> str:
    """A compact name for one run (same shape as ``planner.run_label``)."""
    cpu = system.cpu_app.profile.name if system.cpu_app is not None else "idle"
    gpu = system.gpus[0].profile.name if system.gpus else "nogpu"
    label = f"{cpu}x{gpu}"
    if system.gpus and not system.gpus[0].ssr_enabled:
        label += "!nossr"
    config_label = system.config.label
    if config_label != "Default":
        label += f"[{config_label}]"
    return label


class Profiler:
    """One run's attribution state: ledger + sampler + document builder.

    A profiler serves exactly one :class:`System`; build a fresh one per
    run (``ProfileCollector.new_profiler`` does).
    """

    enabled = True

    def __init__(
        self,
        sample_interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS,
        sampler_capacity: int = DEFAULT_SAMPLER_CAPACITY,
        collector: Optional["ProfileCollector"] = None,
    ):
        self.ledger = InterferenceLedger()
        self.sampler = SimSampler(sample_interval_ns, sampler_capacity)
        self.collector = collector
        self.documents: List[Dict] = []

    def start(self, system: "System") -> None:
        """Hook the sampler onto ``system`` (called by ``System.run``)."""
        self.sampler.attach(system)

    def finish_run(self, system: "System", horizon_ns: int) -> Dict:
        """Freeze this run's attribution into a document; register it."""
        kernel = system.kernel
        document = {
            "schema": RUN_SCHEMA,
            "run": run_label_for(system),
            "config": system.config.label,
            "horizon_ns": horizon_ns,
            "num_cores": kernel.config.cpu.num_cores,
            "ssr_time_ns": kernel.ssr_accounting.total_ns,
            "ssr_completed": kernel.ssr_accounting.completed,
            "ssr_requests": kernel.counters.get(acct.CTR_SSR_REQUEST),
            "ledger": self.ledger.as_dict(),
            "samples": self.sampler.as_dict(),
        }
        self.documents.append(document)
        if self.collector is not None:
            self.collector.add(document)
        return document

    def take_document(self) -> Optional[Dict]:
        """The most recent run document (None before any run finishes)."""
        return self.documents[-1] if self.documents else None


class NullProfiler:
    """The disabled profiler: shares :data:`NULL_LEDGER`, does nothing."""

    enabled = False
    ledger = NULL_LEDGER

    def start(self, system) -> None:
        pass

    def finish_run(self, system, horizon_ns) -> None:
        pass

    def take_document(self) -> None:
        return None


#: The process-wide disabled profiler (shared; it holds no state).
NULL_PROFILER = NullProfiler()


class ProfileCollector:
    """Gathers run documents across many Systems into one bundle."""

    def __init__(
        self,
        sample_interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS,
        sampler_capacity: int = DEFAULT_SAMPLER_CAPACITY,
    ):
        self.sample_interval_ns = sample_interval_ns
        self.sampler_capacity = sampler_capacity
        self.runs: List[Dict] = []

    def new_profiler(self) -> Profiler:
        return Profiler(
            self.sample_interval_ns, self.sampler_capacity, collector=self
        )

    def add(self, document: Dict) -> None:
        self.runs.append(document)

    def __len__(self) -> int:
        return len(self.runs)

    def bundle(self, meta: Optional[Dict] = None) -> Dict:
        """The on-disk / on-wire shape: schema + meta + run documents."""
        return {
            "schema": BUNDLE_SCHEMA,
            "meta": dict(meta or {}),
            "runs": list(self.runs),
        }


#: Active collector consulted by newly constructed Systems when no
#: explicit profiler is passed — how ``hiss experiments --profile``
#: reaches Systems built deep inside experiment harnesses.
_ACTIVE_COLLECTOR: Optional[ProfileCollector] = None


def set_active_collector(collector: Optional[ProfileCollector]) -> None:
    """Install ``collector`` as the process-wide default (``None`` resets)."""
    global _ACTIVE_COLLECTOR
    _ACTIVE_COLLECTOR = collector


def get_active_collector() -> Optional[ProfileCollector]:
    return _ACTIVE_COLLECTOR


# ----------------------------------------------------------------------
# Document helpers
# ----------------------------------------------------------------------
def profile_runs(document: Dict) -> List[Dict]:
    """The run documents of ``document`` (accepts a bundle or one run)."""
    if not isinstance(document, dict):
        raise TypeError(f"profile document must be a dict, got {type(document).__name__}")
    if document.get("schema") == RUN_SCHEMA:
        return [document]
    return list(document.get("runs", []))


def validate_profile(document: Dict) -> List[str]:
    """Validate a bundle or run document; returns a list of problems.

    An empty list means the document is well-formed: schemas match, every
    run has a ledger whose entries carry the attribution key, channel
    names are known, and the conservation invariant holds (service
    channel sums equal the recorded SSR accumulator total).
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, expected dict"]
    schema = document.get("schema")
    if schema == BUNDLE_SCHEMA:
        runs = document.get("runs")
        if not isinstance(runs, list):
            return [f"bundle {BUNDLE_SCHEMA}: 'runs' missing or not a list"]
    elif schema == RUN_SCHEMA:
        runs = [document]
    else:
        return [f"unknown schema {schema!r} (expected {BUNDLE_SCHEMA} or {RUN_SCHEMA})"]
    known = set(ALL_CHANNELS)
    service = set(SSR_SERVICE_CHANNELS)
    for index, run in enumerate(runs):
        where = f"runs[{index}]"
        if not isinstance(run, dict):
            problems.append(f"{where}: not a dict")
            continue
        if run.get("schema") != RUN_SCHEMA:
            problems.append(f"{where}: schema {run.get('schema')!r} != {RUN_SCHEMA}")
        for field in ("run", "horizon_ns", "num_cores", "ssr_time_ns", "ledger", "samples"):
            if field not in run:
                problems.append(f"{where}: missing field {field!r}")
        ledger = run.get("ledger")
        if not isinstance(ledger, dict) or not isinstance(ledger.get("entries"), list):
            problems.append(f"{where}: ledger entries missing")
            continue
        service_sum = 0
        for position, entry in enumerate(ledger["entries"]):
            cell = f"{where}.ledger.entries[{position}]"
            if not isinstance(entry, dict):
                problems.append(f"{cell}: not a dict")
                continue
            missing = [f for f in ("ssr", "channel", "victim", "app", "core", "ns") if f not in entry]
            if missing:
                problems.append(f"{cell}: missing {', '.join(missing)}")
                continue
            if entry["channel"] not in known:
                problems.append(f"{cell}: unknown channel {entry['channel']!r}")
            elif entry["channel"] in service:
                service_sum += entry["ns"]
            if entry["ns"] < 0:
                problems.append(f"{cell}: negative ns {entry['ns']}")
        total = run.get("ssr_time_ns")
        if isinstance(total, (int, float)) and service_sum != total:
            problems.append(
                f"{where}: conservation violated — service channels sum to "
                f"{service_sum}, SSR accumulator recorded {total}"
            )
        samples = run.get("samples")
        if isinstance(samples, dict):
            rows = samples.get("rows")
            if not isinstance(rows, list):
                problems.append(f"{where}.samples: rows missing")
            elif any(not isinstance(row, (list, tuple)) or len(row) != 5 for row in rows):
                problems.append(f"{where}.samples: malformed row (expected 5 columns)")
    return problems
