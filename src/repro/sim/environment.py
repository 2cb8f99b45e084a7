"""The simulation environment: clock, event heap, and run loop."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Tuple

from ..telemetry import NULL_TRACER
from .events import NORMAL, AllOf, Event, Timeout


class Environment:
    """A discrete-event simulation environment.

    Time is a monotonically non-decreasing number (integer nanoseconds by
    convention throughout this project).  Events are processed in
    ``(time, priority, insertion order)`` order, which makes runs fully
    deterministic.
    """

    def __init__(self, initial_time: int = 0):
        #: Current simulated time.  A plain attribute, not a property: it is
        #: read several times per event, and only the run loop writes it.
        self.now = initial_time
        self._queue: List[Tuple[Any, int, int, Event]] = []
        self._eid = 0
        #: Telemetry sink (never affects scheduling; NULL_TRACER is a no-op).
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # Event creation helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Create a condition that fires when all of ``events`` have."""
        return AllOf(self, events)

    def process(self, generator: Generator) -> "Process":
        """Start a new process driving ``generator``."""
        from .process import Process

        return Process(self, generator)

    def call_later(self, delay, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` time units."""
        timeout = Timeout(self, delay)
        timeout.callbacks.append(lambda _event: fn())
        return timeout

    # ------------------------------------------------------------------
    # Scheduling and the run loop
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay=0, priority: int = NORMAL) -> None:
        """Schedule a triggered ``event`` for processing ``delay`` from now."""
        self._eid += 1
        heapq.heappush(self._queue, (self.now + delay, priority, self._eid, event))

    def peek(self):
        """Return the time of the next scheduled event (or ``None``)."""
        return self._queue[0][0] if self._queue else None

    def run(self, until=None) -> None:
        """Run until the heap is empty or simulated time exceeds ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return, even if no event lands on that instant.

        Each step pops the earliest event, advances the clock to it and
        runs its callbacks; a failed event that no waiter defused is
        raised here.  This is the simulator's hottest loop, so the heap,
        pop, and bound checks are held in locals.
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        start = self.now
        queue = self._queue
        pop = heapq.heappop
        if until is None:
            while queue:
                when, _priority, _eid, event = pop(queue)
                self.now = when
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
        else:
            while queue and queue[0][0] <= until:
                when, _priority, _eid, event = pop(queue)
                self.now = when
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
        if until is not None and self.now < until:
            self.now = until
        if self.tracer.enabled:
            self.tracer.span(
                "sim.run", "sim", "sim", start, self.now,
                args={"events_pending": len(self._queue)},
            )
