"""The simulation environment: clock, event heap, and run loop."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Tuple

from ..telemetry import NULL_TRACER
from .events import NORMAL, AllOf, AnyOf, Event, Timeout


class EmptySchedule(Exception):
    """Raised internally when the event heap runs dry."""


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

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Create a condition that fires when the first of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Create a condition that fires when all of ``events`` have."""
        return AllOf(self, events)

    def process(self, generator: Generator) -> "Process":
        """Start a new process driving ``generator``."""
        from .process import Process

        return Process(self, generator)

    def call_at(self, when, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute time ``when`` (must not be in the past)."""
        if when < self.now:
            raise ValueError(f"call_at({when}) is in the past (now={self.now})")
        return self.call_later(when - self.now, fn)

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

    def step(self) -> None:
        """Process exactly one event."""
        try:
            when, _priority, _eid, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self.now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            raise event._value

    def run(self, until=None) -> None:
        """Run until the heap is empty or simulated time exceeds ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return, even if no event lands on that instant.

        This is the simulator's hottest loop, so :meth:`step` is inlined
        here with the heap, pop, and bound checks held in locals — the
        behaviour is identical, event for event.
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

    def run_until_event(self, event: Event, limit=None) -> Any:
        """Run until ``event`` is processed; return its value.

        ``limit`` optionally bounds simulated time; exceeding it raises
        :class:`TimeoutError`.

        The dispatch loop is inlined the same way :meth:`run` inlines
        :meth:`step` — heap, pop, and bound checks in locals — and
        processes events in the identical order.
        """
        queue = self._queue
        pop = heapq.heappop
        while not event.processed:
            if not queue:
                raise RuntimeError("schedule ran dry before the event fired")
            if limit is not None and queue[0][0] > limit:
                raise TimeoutError(f"event did not fire by t={limit}")
            when, _priority, _eid, ready = pop(queue)
            self.now = when
            callbacks, ready.callbacks = ready.callbacks, None
            for callback in callbacks:
                callback(ready)
            if ready._ok is False and not ready._defused:
                raise ready._value
        if not event.ok:
            event.defuse()
            raise event.value
        return event.value
