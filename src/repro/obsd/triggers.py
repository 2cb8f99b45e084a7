"""Trigger predicates: when does the flight recorder snapshot a bundle?

A :class:`TriggerSpec` is a frozen description of one capture condition;
:class:`TriggerState` is its mutable runtime companion (owned by the
recorder) holding debounce and rate-limit bookkeeping.  Both limits are
per-trigger and evaluated against the *event's* timestamp, so replaying
the same event stream suppresses the same captures.

Kinds:

* ``slo_alert`` — an SLO burn-rate rule started firing (``slo.alert``
  edge from the :class:`~repro.obsd.engine.SloEngine`)
* ``worker_crash`` — the warm pool's lifetime ``crashed_workers``
  counter advanced (checked after every batch; the respawn shows up in
  the same :class:`~repro.core.pool.PoolStats` delta)
* ``ledger_invariant`` — a profiled job's attribution failed
  reconciliation (:func:`repro.profiling.validate_profile` found
  problems: service-channel sums no longer match the SSR accumulator)
* ``manual`` — ``POST /v1/postmortems/trigger``

Debounce suppresses rapid-fire repeats of one condition (an alert storm
is one incident, not thirty bundles); the hourly rate limit bounds what
a pathological trigger can write to disk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Tuple

__all__ = [
    "KIND_LEDGER_INVARIANT",
    "KIND_MANUAL",
    "KIND_SLO_ALERT",
    "KIND_WORKER_CRASH",
    "RATE_WINDOW_S",
    "TRIGGER_KINDS",
    "TriggerSpec",
    "TriggerState",
    "default_triggers",
]

KIND_SLO_ALERT = "slo_alert"
KIND_WORKER_CRASH = "worker_crash"
KIND_LEDGER_INVARIANT = "ledger_invariant"
KIND_MANUAL = "manual"

TRIGGER_KINDS = (KIND_SLO_ALERT, KIND_WORKER_CRASH, KIND_LEDGER_INVARIANT, KIND_MANUAL)

#: The rate-limit accounting window (one hour, in event-time seconds).
RATE_WINDOW_S = 3600.0


@dataclass(frozen=True)
class TriggerSpec:
    """One capture condition with its debounce and rate-limit policy."""

    name: str
    kind: str
    #: Minimum event-time seconds between two captures of this trigger.
    debounce_s: float = 30.0
    #: Hard cap on captures per trailing hour of event time.
    max_per_hour: int = 6

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("trigger name must be non-empty")
        if self.kind not in TRIGGER_KINDS:
            raise ValueError(
                f"unknown trigger kind {self.kind!r} (expected one of {TRIGGER_KINDS})"
            )
        if self.debounce_s < 0:
            raise ValueError(f"{self.name}: debounce_s must be >= 0")
        if self.max_per_hour < 1:
            raise ValueError(f"{self.name}: max_per_hour must be >= 1")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "debounce_s": self.debounce_s,
            "max_per_hour": self.max_per_hour,
        }


class TriggerState:
    """Runtime debounce/rate-limit state for one :class:`TriggerSpec`."""

    def __init__(self, spec: TriggerSpec):
        self.spec = spec
        self.fired = 0
        self.suppressed_debounce = 0
        self.suppressed_rate = 0
        self._last_fired_s: Optional[float] = None
        self._recent: Deque[float] = deque()

    def should_fire(self, now_s: float) -> bool:
        """Admit or suppress one occurrence at event time ``now_s``."""
        if (
            self._last_fired_s is not None
            and now_s - self._last_fired_s < self.spec.debounce_s
        ):
            self.suppressed_debounce += 1
            return False
        while self._recent and now_s - self._recent[0] >= RATE_WINDOW_S:
            self._recent.popleft()
        if len(self._recent) >= self.spec.max_per_hour:
            self.suppressed_rate += 1
            return False
        self._recent.append(now_s)
        self._last_fired_s = now_s
        self.fired += 1
        return True

    @property
    def suppressed(self) -> int:
        return self.suppressed_debounce + self.suppressed_rate

    def as_dict(self) -> Dict[str, Any]:
        doc = self.spec.as_dict()
        doc.update(
            fired=self.fired,
            suppressed_debounce=self.suppressed_debounce,
            suppressed_rate=self.suppressed_rate,
        )
        return doc


def default_triggers() -> Tuple[TriggerSpec, ...]:
    """The standard trigger set ``hiss-serve --postmortem-dir`` installs."""
    return (
        TriggerSpec("slo-alert", KIND_SLO_ALERT),
        TriggerSpec("worker-crash", KIND_WORKER_CRASH),
        TriggerSpec("ledger-invariant", KIND_LEDGER_INVARIANT),
        TriggerSpec("manual", KIND_MANUAL, debounce_s=0.0, max_per_hour=60),
    )
