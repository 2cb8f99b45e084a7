"""Counting resources with FIFO queueing.

A :class:`Resource` models mutual exclusion over ``capacity`` identical
units (locks when ``capacity == 1``).  Requests are granted strictly in
arrival order, keeping simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .events import Event


class Resource:
    """A counting resource; ``request()``/``release()`` bracket usage."""

    def __init__(self, env, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        """Number of units currently free."""
        return self.capacity - self._in_use

    def request(self) -> Event:
        """Acquire one unit; the returned event fires once granted."""
        event = Event(self.env)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without a matching request()")
        if self._waiters:
            # Hand the unit directly to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
