"""Core event primitives for the discrete-event simulation kernel.

The simulation kernel is a small, self-contained engine in the style of
SimPy: an :class:`Event` is a one-shot occurrence that callbacks can attach
to, a :class:`Timeout` is an event scheduled a fixed delay in the future, and
the :class:`AllOf` condition waits for a set of events.

Simulated time is kept in integer nanoseconds by convention (the engine
itself only requires a comparable, addable number type).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterable, List, Optional

#: Sentinel for "event has not been triggered yet".
PENDING = object()

#: Scheduling priority for interrupts and other must-run-first occurrences.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Interrupt(Exception):
    """Raised inside a process when another actor interrupts it.

    The ``cause`` attribute carries an arbitrary, caller-supplied payload
    describing why the interruption happened (for example, an IRQ vector or
    a preemption notice).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """A one-shot occurrence within an :class:`~repro.sim.environment.Environment`.

    Lifecycle: *pending* -> *triggered* (a value or failure is set and the
    event is scheduled) -> *processed* (its callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callables invoked with this event when it is processed.  ``None``
        #: once the event has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed` (or the failure exception)."""
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env.now, priority, eid, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiters will see ``exception`` raised."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env.now, priority, eid, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine does not re-raise it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        if self.processed:
            state += ",processed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._defused = False
        self._ok = True
        self._value = value
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env.now + delay, NORMAL, eid, self))


class AllOf(Event):
    """Succeeds once every one of ``events`` has been processed.

    The value is the list of sub-events, in the order given.  A failed
    sub-event fails the condition with the sub-event's exception.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._remaining = 0
        for event in self.events:
            if event.processed:
                continue
            self._remaining += 1
            event.callbacks.append(self._on_trigger)
        if self._remaining == 0:
            self._finish()

    def _on_trigger(self, event: Event) -> None:
        self._remaining -= 1
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        if self._remaining == 0:
            self._finish()

    def _finish(self) -> None:
        failed = [event for event in self.events if event.triggered and not event.ok]
        if failed:
            failed[0].defuse()
            self.fail(failed[0].value)
        else:
            self.succeed(list(self.events))
