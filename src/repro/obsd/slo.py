"""Declarative SLOs evaluated as multi-window burn-rate rules.

An :class:`SloSpec` states an objective the serving tier should meet —
"99 % of jobs finish end-to-end under 5 s", "99.9 % of jobs succeed",
"at least half the pool's tasks hit a warm worker" — and the evaluator
turns rollup windows into a verdict.  Everything reduces to one shape:

    each window yields ``(bad, total)`` events; the **burn rate** is
    ``(bad / total) / (1 - objective)`` — how many times faster than
    budget the error budget is being spent.

A rule *fires* when both its fast window (default 5 m) and its slow
window (default 1 h) burn above the spec's factor — the classic
multi-window construction: the slow window keeps one unlucky request
from paging anyone, the fast window makes the alert resolve quickly
once the regression stops.  This is percentile-first alerting, the
operational twin of the paper's observation that SSR interference shows
up at p95/p99 long before it moves a mean.

Evaluation (:func:`evaluate_slos`) is a pure function of the rollup
buckets and the spec list — no wall-clock reads, no ambient state — so
the same capture always produces byte-identical verdicts, whether it is
replayed offline by ``hiss slo`` or watched live by the daemon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .rollup import RollupBucket, RollupStore

__all__ = [
    "ALERTS_SCHEMA",
    "AlertEvent",
    "DEFAULT_SLOS",
    "SLO_SCHEMA",
    "SloSpec",
    "evaluate_slos",
    "parse_slo_document",
    "slo_document",
    "validate_slo_document",
]

#: Version tag of SLO spec documents (``{"schema": "hiss.slo/1", ...}``).
SLO_SCHEMA = "hiss.slo/1"

#: Version tag of the ``GET /v1/alerts`` document.
ALERTS_SCHEMA = "hiss.alerts/1"

#: Spec kinds.
KIND_LATENCY = "latency"
KIND_AVAILABILITY = "availability"
KIND_RATIO = "ratio"
_KINDS = (KIND_LATENCY, KIND_AVAILABILITY, KIND_RATIO)

#: Short latency labels -> full histogram names (mirrors
#: ``repro.service.obs.LATENCY_HISTOGRAMS``; kept literal so this module
#: stays importable without the service layer).
LATENCY_METRICS = {
    "queue_wait_s": "service.job.queue_wait_s",
    "sim_s": "service.job.sim_s",
    "e2e_s": "service.job.e2e_s",
}

#: Default multi-window pair: page-grade 5 m / 1 h at 14.4x burn (a rate
#: that exhausts a 30-day budget in ~2 days).
DEFAULT_FAST_WINDOW_S = 300.0
DEFAULT_SLOW_WINDOW_S = 3600.0
DEFAULT_BURN_FACTOR = 14.4


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective plus its burn-rate alert rule."""

    name: str
    kind: str
    #: ``latency``: histogram label/name; ``ratio``: numerator counter.
    metric: str = ""
    #: ``latency`` only: the stage budget in seconds.
    threshold_s: float = 0.0
    #: ``latency``: implied by ``percentile`` (p99 -> 0.99).
    #: ``availability`` / ``ratio``: the target good fraction.
    objective: float = 0.999
    #: ``latency`` only: which tail the threshold guards (e.g. 99).
    percentile: float = 99.0
    #: ``availability``: counter families counted as good / bad events.
    good: Tuple[str, ...] = ()
    bad: Tuple[str, ...] = ()
    #: ``ratio``: denominator counter (metric is the numerator).
    denominator: str = ""
    fast_window_s: float = DEFAULT_FAST_WINDOW_S
    slow_window_s: float = DEFAULT_SLOW_WINDOW_S
    burn_factor: float = DEFAULT_BURN_FACTOR
    severity: str = "page"
    description: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"slo {self.name!r}: unknown kind {self.kind!r}")
        if not self.name:
            raise ValueError("slo spec needs a non-empty name")
        if self.kind == KIND_LATENCY:
            if not self.metric:
                raise ValueError(f"slo {self.name!r}: latency slo needs 'metric'")
            if self.threshold_s <= 0:
                raise ValueError(f"slo {self.name!r}: threshold_s must be positive")
            if not 0 < self.percentile < 100:
                raise ValueError(f"slo {self.name!r}: percentile must be in (0, 100)")
            object.__setattr__(self, "objective", self.percentile / 100.0)
        elif self.kind == KIND_AVAILABILITY:
            if not self.good or not self.bad:
                raise ValueError(
                    f"slo {self.name!r}: availability slo needs 'good' and 'bad'"
                )
        elif self.kind == KIND_RATIO:
            if not self.metric or not self.denominator:
                raise ValueError(
                    f"slo {self.name!r}: ratio slo needs 'metric' and 'denominator'"
                )
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"slo {self.name!r}: objective {self.objective} outside (0, 1)"
            )
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ValueError(
                f"slo {self.name!r}: need 0 < fast_window_s <= slow_window_s"
            )
        if self.burn_factor <= 0:
            raise ValueError(f"slo {self.name!r}: burn_factor must be positive")

    @property
    def budget(self) -> float:
        """The error budget: tolerable bad fraction (``1 - objective``)."""
        return 1.0 - self.objective

    # ------------------------------------------------------------------
    # Window reduction
    # ------------------------------------------------------------------
    def _histogram_name(self) -> str:
        return LATENCY_METRICS.get(self.metric, self.metric)

    def events(self, window: RollupBucket) -> Tuple[float, float]:
        """Reduce one window to ``(bad, total)`` events."""
        if self.kind == KIND_LATENCY:
            histogram = window.histograms.get(self._histogram_name())
            if histogram is None or histogram.count == 0:
                return 0.0, 0.0
            return histogram.fraction_over(self.threshold_s) * histogram.count, float(
                histogram.count
            )
        if self.kind == KIND_AVAILABILITY:
            good = float(window.total(self.good))
            bad = float(window.total(self.bad))
            return bad, good + bad
        numerator = float(window.counters.get(self.metric, 0))
        denominator = float(window.counters.get(self.denominator, 0))
        return max(0.0, denominator - numerator), denominator

    def evaluate_window(self, window: RollupBucket) -> Dict[str, float]:
        bad, total = self.events(window)
        bad_fraction = bad / total if total else 0.0
        return {
            "seconds": window.seconds,
            "total": total,
            "bad": bad,
            "bad_fraction": bad_fraction,
            "burn": bad_fraction / self.budget,
        }

    def evaluate(self, store: RollupStore, end_s: Optional[float] = None) -> Dict[str, Any]:
        """Both windows plus the verdict, as one JSON-able row."""
        fast = self.evaluate_window(store.window(self.fast_window_s, end_s=end_s))
        slow = self.evaluate_window(store.window(self.slow_window_s, end_s=end_s))
        firing = bool(
            fast["total"]
            and fast["burn"] >= self.burn_factor
            and slow["burn"] >= self.burn_factor
        )
        return {
            "name": self.name,
            "kind": self.kind,
            "severity": self.severity,
            "objective": self.objective,
            "burn_factor": self.burn_factor,
            "detail": self.detail(),
            "windows": {"fast": fast, "slow": slow},
            "firing": firing,
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def detail(self) -> str:
        """One-line human rendering of the objective."""
        if self.kind == KIND_LATENCY:
            return (
                f"{self.metric} p{self.percentile:g} < {self.threshold_s:g}s"
            )
        if self.kind == KIND_AVAILABILITY:
            return f"availability >= {self.objective * 100:g}%"
        return f"{self.metric}/{self.denominator} >= {self.objective * 100:g}%"

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "burn_factor": self.burn_factor,
            "severity": self.severity,
        }
        if self.description:
            doc["description"] = self.description
        if self.kind == KIND_LATENCY:
            doc["metric"] = self.metric
            doc["percentile"] = self.percentile
            doc["threshold_s"] = self.threshold_s
        elif self.kind == KIND_AVAILABILITY:
            doc["objective"] = self.objective
            doc["good"] = list(self.good)
            doc["bad"] = list(self.bad)
        else:
            doc["objective"] = self.objective
            doc["metric"] = self.metric
            doc["denominator"] = self.denominator
        return doc


@dataclass
class AlertEvent:
    """One edge-triggered alert transition (fired or resolved)."""

    slo: str
    state: str  # "firing" | "resolved"
    severity: str
    at_s: float  # evaluation timestamp (bucket end — capture time)
    burn_fast: float
    burn_slow: float
    detail: str = ""
    message: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.slo,
            "state": self.state,
            "severity": self.severity,
            "at_s": self.at_s,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "detail": self.detail,
            "message": self.message,
        }


#: The out-of-the-box spec set (``hiss serve --slo default``): the three
#: stage tails the ops snapshot already surfaces, availability, and the
#: warm pool's hit ratio.  Latency thresholds are deliberately generous
#: defaults — tighten them per deployment with a spec file.
DEFAULT_SLOS: Tuple[SloSpec, ...] = (
    SloSpec(
        name="e2e-p99",
        kind=KIND_LATENCY,
        metric="e2e_s",
        percentile=99,
        threshold_s=60.0,
        description="99% of jobs finish end-to-end within a minute",
    ),
    SloSpec(
        name="queue-wait-p95",
        kind=KIND_LATENCY,
        metric="queue_wait_s",
        percentile=95,
        threshold_s=30.0,
        severity="ticket",
        description="95% of jobs start executing within 30s of admission",
    ),
    SloSpec(
        name="availability",
        kind=KIND_AVAILABILITY,
        objective=0.999,
        good=("service.jobs.completed",),
        bad=("service.jobs.failed",),
        description="99.9% of finished jobs succeed",
    ),
    SloSpec(
        name="pool-warm-hits",
        kind=KIND_RATIO,
        metric="pool.warm_hits",
        denominator="pool.tasks_completed",
        objective=0.5,
        burn_factor=1.5,
        severity="ticket",
        description="at least half of pool tasks land on a warm worker",
    ),
)


# ----------------------------------------------------------------------
# Pure evaluation
# ----------------------------------------------------------------------
def evaluate_slos(
    specs,
    store: RollupStore,
    end_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Evaluate every spec against the store at ``end_s`` (pure).

    ``end_s`` defaults to the newest bucket's end — capture time, not
    wall time — so a finished capture evaluates identically forever.
    """
    if end_s is None:
        end_s = store.end_s if store.end_s is not None else 0.0
    evaluations = [spec.evaluate(store, end_s=end_s) for spec in specs]
    return {
        "schema": ALERTS_SCHEMA,
        "at_s": end_s,
        "buckets": len(store),
        "interval_s": store.interval_s,
        "decimations": store.decimations,
        "evaluations": evaluations,
        "firing": [row["name"] for row in evaluations if row["firing"]],
    }


# ----------------------------------------------------------------------
# Spec documents (the ``--slo FILE`` format)
# ----------------------------------------------------------------------
_COMMON_FIELDS = {
    "name", "kind", "fast_window_s", "slow_window_s", "burn_factor",
    "severity", "description",
}
_KIND_FIELDS = {
    KIND_LATENCY: {"metric", "percentile", "threshold_s"},
    KIND_AVAILABILITY: {"objective", "good", "bad"},
    KIND_RATIO: {"objective", "metric", "denominator"},
}


def slo_document(specs) -> Dict[str, Any]:
    """Serialize a spec list into the versioned document format."""
    return {"schema": SLO_SCHEMA, "slos": [spec.as_dict() for spec in specs]}


def validate_slo_document(doc: Any) -> List[str]:
    """Schema-check an SLO document; returns a list of problems."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    if doc.get("schema") != SLO_SCHEMA:
        errors.append(f"unknown schema {doc.get('schema')!r} (expected {SLO_SCHEMA!r})")
    slos = doc.get("slos")
    if not isinstance(slos, list) or not slos:
        return errors + ["missing or empty 'slos' array"]
    seen = set()
    for index, entry in enumerate(slos):
        where = f"slos[{index}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        kind = entry.get("kind")
        if kind not in _KINDS:
            errors.append(f"{where}: unknown kind {kind!r} (known: {list(_KINDS)})")
            continue
        allowed = _COMMON_FIELDS | _KIND_FIELDS[kind]
        unknown = set(entry) - allowed
        if unknown:
            errors.append(
                f"{where}: unknown field(s) {sorted(unknown)} for kind {kind!r}"
            )
        name = entry.get("name")
        if name in seen:
            errors.append(f"{where}: duplicate slo name {name!r}")
        seen.add(name)
        try:
            _spec_from_entry(entry)
        except (ValueError, TypeError) as exc:
            errors.append(f"{where}: {exc}")
    return errors


def _spec_from_entry(entry: Dict[str, Any]) -> SloSpec:
    kwargs: Dict[str, Any] = {
        "name": str(entry.get("name") or ""),
        "kind": entry.get("kind"),
    }
    for key in (
        "metric", "threshold_s", "objective", "percentile", "denominator",
        "fast_window_s", "slow_window_s", "burn_factor", "severity",
        "description",
    ):
        if key in entry:
            kwargs[key] = entry[key]
    if "good" in entry:
        kwargs["good"] = tuple(entry["good"])
    if "bad" in entry:
        kwargs["bad"] = tuple(entry["bad"])
    return SloSpec(**kwargs)


def parse_slo_document(doc: Any) -> List[SloSpec]:
    """Parse + validate a spec document; raises ``ValueError`` on problems."""
    problems = validate_slo_document(doc)
    if problems:
        raise ValueError("; ".join(problems))
    return [_spec_from_entry(entry) for entry in doc["slos"]]
