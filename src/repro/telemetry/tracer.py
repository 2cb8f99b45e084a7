"""Structured event tracing for the simulator.

A :class:`Tracer` records typed events — spans (an interval on a track),
instants (a point), and counter samples (a value over time) — keyed by a
*track* (a core id, or a named device track like ``"iommu"``) and
simulated nanoseconds.  Storage is bounded, and every event that does
not fit is counted as dropped: a :class:`Tracer` is a ring that drops its
*oldest* events, and a :class:`RunTracer` keeps a run's *first* events and
never builds the ones past its capacity.

The zero-overhead contract: instrumentation sites hold a tracer reference
and guard every emission with ``if tracer.enabled:``.  The default
:data:`NULL_TRACER` has ``enabled = False``, so a non-traced run pays one
attribute load and one branch per site — and, critically, tracing never
schedules simulation events or consumes random numbers, so a traced run
is bit-for-bit identical to an untraced one.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, NamedTuple, Optional, Union

from .metrics import MetricsRegistry

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "RunTracer",
    "TraceEvent",
    "Tracer",
    "get_active_tracer",
    "set_active_tracer",
]

#: Chrome trace_event phase codes used by this tracer.
PHASE_SPAN = "X"  # complete event (ts + dur)
PHASE_INSTANT = "i"
PHASE_COUNTER = "C"

#: A track is either a core id (int) or a named device/system track.
Track = Union[int, str]


class TraceEvent(NamedTuple):
    """One recorded event, in simulated nanoseconds (immutable)."""

    phase: str
    name: str
    category: str
    track: Track
    ts_ns: float
    dur_ns: float = 0.0
    args: Optional[Dict] = None


class Tracer:
    """Bounded-ring-buffer event recorder plus a metrics registry."""

    enabled = True

    def __init__(self, capacity: int = 1_000_000):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        #: Events not kept because the tracer was at :attr:`capacity` when
        #: they arrived: evicted from a ring, or never built by a
        #: :class:`RunTracer`.
        self.dropped = 0
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _admit(self) -> bool:
        """Whether to store the next event, counting one drop if not all
        fit: the ring stores every event and evicts its oldest."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        return True

    def span(
        self,
        name: str,
        category: str,
        track: Track,
        start_ns: float,
        end_ns: float,
        args: Optional[Dict] = None,
    ) -> None:
        """Record an interval ``[start_ns, end_ns]`` on ``track``."""
        if end_ns < start_ns:
            raise ValueError(f"span {name!r}: end {end_ns} before start {start_ns}")
        if self._admit():
            self._events.append(TraceEvent(
                PHASE_SPAN, name, category, track, start_ns, end_ns - start_ns, args
            ))

    def instant(
        self,
        name: str,
        category: str,
        track: Track,
        ts_ns: float,
        args: Optional[Dict] = None,
    ) -> None:
        """Record a point event at ``ts_ns`` on ``track``."""
        if self._admit():
            self._events.append(TraceEvent(
                PHASE_INSTANT, name, category, track, ts_ns, 0.0, args
            ))

    def counter_sample(
        self, name: str, track: Track, ts_ns: float, value: float
    ) -> None:
        """Record a sampled counter value (renders as a graph in Perfetto)."""
        if self._admit():
            self._events.append(TraceEvent(
                PHASE_COUNTER, name, "counter", track, ts_ns, 0.0, {"value": value}
            ))

    def emit(self, event: TraceEvent) -> None:
        """Append an already-built event (merging another tracer's stream)."""
        if self._admit():
            self._events.append(event)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> Iterator[TraceEvent]:
        """All buffered events, oldest first."""
        return iter(self._events)

    def tracks(self) -> List[Track]:
        """Every distinct track, core ids first, then named tracks sorted."""
        cores = sorted({e.track for e in self._events if isinstance(e.track, int)})
        named = sorted({e.track for e in self._events if isinstance(e.track, str)})
        return [*cores, *named]


class RunTracer(Tracer):
    """One run's tracer: keeps the run's *first* ``capacity`` events.

    Once it is full, each further ``span``/``instant``/``counter_sample``
    only adds one to :attr:`dropped`; no event is built just to be thrown
    away.  Its :attr:`metrics` record every sample regardless.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._events: list = []

    def _admit(self) -> bool:
        if len(self._events) < self.capacity:
            return True
        self.dropped += 1
        return False

    def take_events(self) -> List[TraceEvent]:
        """Hand the kept events over, leaving this tracer empty.

        A finished run's ``System``, this tracer included, is cyclic
        garbage until the next full collection; a copy would leave the
        events alive that long, the handed-over list dies with its
        taker.
        """
        events, self._events = self._events, []
        return events


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumentation sites check :attr:`enabled` before building event
    arguments, so with this tracer the hot path pays a single branch.
    """

    enabled = False

    def __init__(self):
        self.capacity = 0
        self.dropped = 0
        self.metrics = MetricsRegistry()

    def span(self, *args, **kwargs) -> None:
        pass

    def instant(self, *args, **kwargs) -> None:
        pass

    def counter_sample(self, *args, **kwargs) -> None:
        pass

    def emit(self, *args, **kwargs) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def events(self) -> Iterator[TraceEvent]:
        return iter(())

    def tracks(self) -> List[Track]:
        return []


#: The process-wide disabled tracer (shared; it holds no state).
NULL_TRACER = NullTracer()

#: Active tracer used by newly constructed Systems when none is passed
#: explicitly — this is how ``hiss experiments --trace`` reaches Systems
#: built deep inside experiment harnesses.
_ACTIVE: Union[Tracer, NullTracer] = NULL_TRACER


def set_active_tracer(tracer: Optional[Union[Tracer, NullTracer]]) -> None:
    """Install ``tracer`` as the process-wide default (``None`` resets)."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER


def get_active_tracer() -> Union[Tracer, NullTracer]:
    return _ACTIVE
